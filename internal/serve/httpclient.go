package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
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
// becomes replyError's error.
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
		return replyError(hresp.StatusCode, msg)
	}
	return json.NewDecoder(hresp.Body).Decode(out)
}

// wireSentinels are the serving errors a reply can carry. The server
// writes err.Error(), which begins with the sentinel's text.
var wireSentinels = []error{ErrBadRequest, ErrModelVersion, ErrOverloaded, ErrDeadline, ErrNoModel, ErrClosed}

// replyError turns an error reply back into an error: the server's
// message, wrapping the sentinel it begins with so errors.Is works across
// the wire, or "http <code>: <msg>" when it begins with none.
func replyError(status int, body []byte) error {
	msg := string(bytes.TrimSpace(body))
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	for _, sentinel := range wireSentinels {
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
	}
	return fmt.Errorf("http %d: %s", status, msg)
}
