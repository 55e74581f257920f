package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
)

// maxRequestBytes bounds one /v1/predict body; oversized requests are
// rejected at decode instead of buffered.
const maxRequestBytes = 16 << 20

// WireVertex is one CT-graph vertex on the wire.
type WireVertex struct {
	Block int32 `json:"block"`
	Type  uint8 `json:"type"`
}

// WireEdge is one typed directed edge between vertex indices.
type WireEdge struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
	Type uint8 `json:"type"`
}

// WireHint is one scheduling hint of the candidate schedule: thread yields
// after instruction (block, idx).
type WireHint struct {
	Thread int32 `json:"thread"`
	Block  int32 `json:"block"`
	Idx    int32 `json:"idx"`
}

// WireGraph is the JSON encoding of one ctgraph.Graph, carrying exactly
// the fields inference reads: vertices, typed edges, the schedule's hints,
// and the per-hint trace fractions.
type WireGraph struct {
	Vertices []WireVertex `json:"vertices"`
	Edges    []WireEdge   `json:"edges,omitempty"`
	Hints    []WireHint   `json:"hints,omitempty"`
	HintFrac []float64    `json:"hint_frac,omitempty"`
}

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	// Model pins the request to a version; empty serves the active model.
	Model string `json:"model,omitempty"`
	// DeadlineMS is a relative per-request deadline in milliseconds;
	// 0 applies the server default.
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
	Graphs     []WireGraph `json:"graphs"`
}

// PredictResponse is the /v1/predict reply: per-graph per-vertex
// probabilities, all scored by one model version.
type PredictResponse struct {
	Model     string      `json:"model"`
	Threshold float64     `json:"threshold"`
	Scores    [][]float64 `json:"scores"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// EncodeGraph converts a graph to its wire form (the client half of the
// protocol; loadgen uses it).
func EncodeGraph(g *ctgraph.Graph) WireGraph {
	w := WireGraph{
		Vertices: make([]WireVertex, len(g.Vertices)),
		HintFrac: g.HintFrac,
	}
	for i, v := range g.Vertices {
		w.Vertices[i] = WireVertex{Block: v.Block, Type: uint8(v.Type)}
	}
	if len(g.Edges) > 0 {
		w.Edges = make([]WireEdge, len(g.Edges))
		for i, e := range g.Edges {
			w.Edges[i] = WireEdge{From: e.From, To: e.To, Type: uint8(e.Type)}
		}
	}
	for _, h := range g.Sched.Hints {
		w.Hints = append(w.Hints, WireHint{Thread: h.Thread, Block: h.Ref.Block, Idx: h.Ref.Idx})
	}
	return w
}

// Validate checks the wire graph's structural invariants: vertex and edge
// types in range, edge endpoints inside the vertex set, hint threads 0/1,
// finite hint fractions, and — when numBlocks > 0 — vertex block IDs
// inside the served kernel's block universe. Malformed inputs are
// rejected here so the scoring path never sees an out-of-range index.
func (w WireGraph) Validate(numBlocks int) error {
	n := int32(len(w.Vertices))
	for i, v := range w.Vertices {
		if v.Type >= ctgraph.NumVertexTypes {
			return fmt.Errorf("%w: vertex %d: type %d out of range", ErrBadRequest, i, v.Type)
		}
		if v.Block < 0 || (numBlocks > 0 && v.Block >= int32(numBlocks)) {
			return fmt.Errorf("%w: vertex %d: block %d outside the served kernel (%d blocks)",
				ErrBadRequest, i, v.Block, numBlocks)
		}
	}
	for i, e := range w.Edges {
		if e.Type >= ctgraph.NumEdgeTypes {
			return fmt.Errorf("%w: edge %d: type %d out of range", ErrBadRequest, i, e.Type)
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("%w: edge %d: endpoints (%d,%d) outside %d vertices",
				ErrBadRequest, i, e.From, e.To, n)
		}
	}
	for i, h := range w.Hints {
		if h.Thread != 0 && h.Thread != 1 {
			return fmt.Errorf("%w: hint %d: thread %d not in {0,1}", ErrBadRequest, i, h.Thread)
		}
	}
	for i, f := range w.HintFrac {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: hint_frac %d: non-finite value", ErrBadRequest, i)
		}
	}
	return nil
}

// Graph converts a validated wire graph into the in-memory form the model
// scores. Wire graphs carry no ctgraph.Base link, so they predict without
// a BaseContext (correct, just unamortised).
func (w WireGraph) Graph() *ctgraph.Graph {
	g := &ctgraph.Graph{
		Vertices: make([]ctgraph.Vertex, len(w.Vertices)),
		HintFrac: w.HintFrac,
	}
	for i, v := range w.Vertices {
		g.Vertices[i] = ctgraph.Vertex{Block: v.Block, Type: ctgraph.VertexType(v.Type)}
	}
	if len(w.Edges) > 0 {
		g.Edges = make([]ctgraph.Edge, len(w.Edges))
		for i, e := range w.Edges {
			g.Edges[i] = ctgraph.Edge{From: e.From, To: e.To, Type: ctgraph.EdgeType(e.Type)}
		}
	}
	for _, h := range w.Hints {
		g.Sched.Hints = append(g.Sched.Hints, ski.Hint{
			Thread: h.Thread,
			Ref:    sim.InstrRef{Block: h.Block, Idx: h.Idx},
		})
	}
	g.Rebind()
	return g
}

// DecodeRequest parses and validates a /v1/predict body against the
// served kernel's block universe (numBlocks 0 skips the block check). It
// never panics on malformed input — FuzzServeRequest pins that.
func DecodeRequest(data []byte, numBlocks int) (*PredictRequest, error) {
	var req PredictRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Graphs) == 0 {
		return nil, fmt.Errorf("%w: no graphs", ErrBadRequest)
	}
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("%w: negative deadline_ms", ErrBadRequest)
	}
	for i, wg := range req.Graphs {
		if err := wg.Validate(numBlocks); err != nil {
			return nil, fmt.Errorf("graph %d: %w", i, err)
		}
	}
	return &req, nil
}

// Handler returns the server's HTTP API:
//
//	POST /v1/predict     — score CT graphs (PredictRequest → PredictResponse)
//	POST /v1/predict_cti — score raw (CTI, schedules); the shard profiles
//	                       and builds the graphs itself (PredictCTIRequest)
//	GET  /v1/models      — list registered model versions
//	GET  /healthz        — liveness + active model
//	GET  /statsz         — ledger-style serving counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/predict_cti", s.handlePredictCTI)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeRequest(body, s.reg.NumBlocks())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sreq := &Request{Model: req.Model}
	if req.DeadlineMS > 0 {
		sreq.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	sreq.Graphs = make([]*ctgraph.Graph, len(req.Graphs))
	for i, wg := range req.Graphs {
		sreq.Graphs[i] = wg.Graph()
	}
	resp, err := s.Predict(r.Context(), sreq)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{
		Model:     resp.Model,
		Threshold: resp.Threshold,
		Scores:    resp.Scores,
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status string `json:"status"`
		Model  string `json:"model,omitempty"`
	}
	if s.isClosed() {
		writeJSON(w, http.StatusServiceUnavailable, health{Status: "draining"})
		return
	}
	snap := s.reg.Active()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, health{Status: "no active model"})
		return
	}
	writeJSON(w, http.StatusOK, health{Status: "ok", Model: snap.Version})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// statusOf maps serving errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrModelVersion):
		return http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoModel), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return data, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
