package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"snowcat/internal/ski"
)

// HTTPClient is the shard-aware HTTP client of a serve fleet: it routes
// every CTI-level request to the shard the Ring assigns, over a per-shard
// connection pool so keep-alive reuse is never diluted across shards.
// Because the ring is a pure function of the shard count, any number of
// independent clients (processes, machines) agree on the routing without
// coordination — and therefore all keep the same shard hot for the same
// CTI.
type HTTPClient struct {
	ring  *Ring
	urls  []string
	https []*http.Client
}

// NewHTTPClient builds a client over the given shard base URLs (e.g.
// "http://10.0.0.1:7077"), in shard order. replicas <= 0 selects
// DefaultReplicas; it must match the value every other client uses.
func NewHTTPClient(urls []string, replicas int) *HTTPClient {
	if len(urls) == 0 {
		panic("serve: NewHTTPClient with no shard URLs")
	}
	c := &HTTPClient{
		ring:  NewRing(len(urls), replicas),
		urls:  append([]string(nil), urls...),
		https: make([]*http.Client, len(urls)),
	}
	for i := range c.https {
		// One transport per shard: connection reuse tracks the routing, so
		// a hot shard's sockets are never evicted by traffic to another.
		c.https[i] = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        16,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c
}

// ShardFor returns the shard the ring routes the CTI to.
func (c *HTTPClient) ShardFor(ctiID int64) int { return c.ring.Shard(ctiID) }

// PredictCTI scores the schedules of one CTI on its owning shard.
func (c *HTTPClient) PredictCTI(ctx context.Context, cti ski.CTI, scheds []ski.Schedule, deadlineMS int64) (*PredictResponse, error) {
	req := PredictCTIRequest{DeadlineMS: deadlineMS, CTI: EncodeCTI(cti)}
	req.Schedules = make([]WireSchedule, len(scheds))
	for i, s := range scheds {
		req.Schedules[i] = EncodeSchedule(s)
	}
	shard := c.ring.Shard(cti.ID)
	var resp PredictResponse
	if err := c.post(ctx, shard, "/v1/predict_cti", req, &resp); err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	if len(resp.Scores) != len(scheds) {
		return nil, fmt.Errorf("shard %d: %d score rows for %d schedules", shard, len(resp.Scores), len(scheds))
	}
	return &resp, nil
}

// Stats fetches one shard's /statsz counters.
func (c *HTTPClient) Stats(ctx context.Context, shard int) (StatsSnapshot, error) {
	var out StatsSnapshot
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[shard]+"/statsz", nil)
	if err != nil {
		return out, err
	}
	hresp, err := c.https[shard].Do(hreq)
	if err != nil {
		return out, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("statsz: http %d", hresp.StatusCode)
	}
	err = json.NewDecoder(hresp.Body).Decode(&out)
	return out, err
}

// post sends one JSON request to a shard and decodes the reply, mapping
// error bodies back onto the sentinel errors the in-process API returns.
func (c *HTTPClient) post(ctx context.Context, shard int, path string, body, out any) error {
	if shard < 0 || shard >= len(c.urls) {
		return fmt.Errorf("%w: shard %d outside fleet of %d", ErrBadRequest, shard, len(c.urls))
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.urls[shard]+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.https[shard].Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4<<10))
		var e errorResponse
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", errClass(hresp.StatusCode), e.Error)
		}
		return fmt.Errorf("%s: %s", errClass(hresp.StatusCode), bytes.TrimSpace(msg))
	}
	return json.NewDecoder(hresp.Body).Decode(out)
}

// errClass names an HTTP error status with the matching serving error so
// callers can pattern-match retryable overload vs permanent rejection.
func errClass(status int) string {
	switch status {
	case http.StatusServiceUnavailable:
		return "overloaded or draining"
	case http.StatusGatewayTimeout:
		return "deadline expired"
	case http.StatusBadRequest:
		return "bad request"
	case http.StatusConflict:
		return "model version conflict"
	default:
		return fmt.Sprintf("http %d", status)
	}
}
