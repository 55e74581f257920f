package serve

import (
	"context"
	"fmt"

	"snowcat/internal/ctgraph"
	"snowcat/internal/predictor"
)

// Client adapts a Server to the predictor.Predictor interface, so every
// exploration consumer — explore.Walk, campaign, razzer, snowboard —
// runs unmodified against the service instead of an in-process model.
// Score and ScoreBatch are safe for concurrent use (the server owns all
// synchronisation) and their outputs are bit-identical to the wrapped
// model's Predict/PredictAllCtx.
//
// Admission uses Wait mode: backpressure from a full queue slows the
// exploration loop instead of failing it. The only errors that can still
// surface — no active model, a closed server — are programming errors in
// the harness, and the Predictor interface has no error channel, so they
// panic (the worker pool captures pipeline panics as *parallel.PanicError).
type Client struct {
	S *Server
	// Label is the predictor name in reports; empty selects
	// "serve(<active version>)".
	Label string
}

var (
	_ predictor.Predictor   = (*Client)(nil)
	_ predictor.BatchScorer = (*Client)(nil)
)

// NewClient wraps a server.
func NewClient(s *Server, label string) *Client {
	return &Client{S: s, Label: label}
}

// Score implements predictor.Predictor via a one-graph request.
func (c *Client) Score(g *ctgraph.Graph) []float64 {
	return c.scoreAll([]*ctgraph.Graph{g})[0]
}

// ScoreBatch implements predictor.BatchScorer: the whole batch rides one
// request, so the server scores it with one PredictAllCtx call. The
// workers argument is ignored — the serving side owns its pool width
// (results are identical at any width).
func (c *Client) ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 {
	if len(gs) == 0 {
		return nil
	}
	return c.scoreAll(gs)
}

func (c *Client) scoreAll(gs []*ctgraph.Graph) [][]float64 {
	resp, err := c.S.Predict(context.Background(), &Request{Graphs: gs, Wait: true})
	if err != nil {
		panic(fmt.Sprintf("serve: in-process client: %v", err))
	}
	return resp.Scores
}

// Threshold implements predictor.Predictor with the active model's tuned
// operating point.
func (c *Client) Threshold() float64 {
	snap := c.S.Registry().Active()
	if snap == nil {
		panic("serve: in-process client: no active model")
	}
	return snap.Model.Threshold
}

// Name implements predictor.Predictor.
func (c *Client) Name() string {
	if c.Label != "" {
		return c.Label
	}
	if snap := c.S.Registry().Active(); snap != nil {
		return "serve(" + snap.Version + ")"
	}
	return "serve"
}
