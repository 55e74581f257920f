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

// HTTPClient is the HTTP client of one scoring server: it posts
// /v1/predict_cti requests and reads /statsz over a keep-alive connection
// pool.
type HTTPClient struct {
	url string
	hc  *http.Client
}

// NewHTTPClient builds a client for the server at the given base URL
// (e.g. "http://10.0.0.1:7077").
func NewHTTPClient(url string) *HTTPClient {
	return &HTTPClient{
		url: url,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        16,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// PredictCTI scores the schedules of one CTI.
func (c *HTTPClient) PredictCTI(ctx context.Context, cti ski.CTI, scheds []ski.Schedule, deadlineMS int64) (*PredictResponse, error) {
	req := PredictCTIRequest{DeadlineMS: deadlineMS, CTI: EncodeCTI(cti)}
	req.Schedules = make([]WireSchedule, len(scheds))
	for i, s := range scheds {
		req.Schedules[i] = EncodeSchedule(s)
	}
	var resp PredictResponse
	if err := c.post(ctx, "/v1/predict_cti", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Scores) != len(scheds) {
		return nil, fmt.Errorf("%d score rows for %d schedules", len(resp.Scores), len(scheds))
	}
	return &resp, nil
}

// Stats fetches the server's /statsz counters.
func (c *HTTPClient) Stats(ctx context.Context) (StatsSnapshot, error) {
	var out StatsSnapshot
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/statsz", nil)
	if err != nil {
		return out, err
	}
	hresp, err := c.hc.Do(hreq)
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

// post sends one JSON request and decodes the reply. A non-200 reply
// becomes an error naming its status class (errClass) and the server's
// message.
func (c *HTTPClient) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc.Do(hreq)
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
