package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// postJSON posts a body to the test server and decodes the JSON reply.
func postJSON(t *testing.T, ts *httptest.Server, path string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding reply: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding reply: %v", path, err)
		}
	}
	return resp.StatusCode
}

// ctiBody encodes the /v1/predict_cti body of fixture CTI i with all its
// schedules.
func (f *stationFixture) ctiBody(t *testing.T, i int) []byte {
	t.Helper()
	req := PredictCTIRequest{CTI: EncodeCTI(f.ctis[i])}
	for _, s := range f.scheds[i] {
		req.Schedules = append(req.Schedules, EncodeSchedule(s))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHTTPPredictRoundTrip scores CTIs over the wire and pins the response
// to direct in-process predictions of the same graphs: the JSON decode →
// station → WithSchedule → score path is bit-identical too.
func TestHTTPPredictRoundTrip(t *testing.T) {
	f := newStationFixture(t, 1001, 2, 2)
	s := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got [][]float64
	for i := range f.ctis {
		var resp PredictResponse
		if code := postJSON(t, ts, "/v1/predict_cti", f.ctiBody(t, i), &resp); code != http.StatusOK {
			t.Fatalf("cti%d: status %d", i, code)
		}
		if resp.Model != "v1" || resp.Threshold != f.model.Threshold {
			t.Fatalf("header: %+v", resp)
		}
		got = append(got, resp.Scores...)
	}
	want := make([][]float64, len(f.graphs))
	for i, g := range f.graphs {
		want[i] = f.model.Predict(g, f.tc)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire-scored predictions diverged from direct Predict")
	}
}

// TestHTTPStatusCodes maps each serving failure to its HTTP status.
func TestHTTPStatusCodes(t *testing.T) {
	f := newStationFixture(t, 1101, 1, 1)
	s := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := f.ctiBody(t, 0)
	withIRQ := func(irq int32) func(*PredictCTIRequest) {
		return func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{IRQ: irq}} }
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"ok", good, http.StatusOK},
		{"malformed json", []byte(`{"schedules": [`), http.StatusBadRequest},
		{"no schedules", mutate(t, good, func(r *PredictCTIRequest) { r.Schedules = nil }), http.StatusBadRequest},
		{"negative deadline", mutate(t, good, func(r *PredictCTIRequest) { r.DeadlineMS = -1 }), http.StatusBadRequest},
		{"bad syscall", mutate(t, good, func(r *PredictCTIRequest) {
			r.CTI.A.Calls[0].Syscall = int32(len(f.k.Syscalls))
		}), http.StatusBadRequest},
		{"bad hint thread", mutate(t, good, func(r *PredictCTIRequest) { r.Schedules[0].Hints[0].Thread = 2 }), http.StatusBadRequest},
		{"negative irq", mutate(t, good, withIRQ(-1)), http.StatusBadRequest},
		{"irq out of range", mutate(t, good, withIRQ(int32(len(f.k.IRQs)))), http.StatusBadRequest},
		{"unknown model pin", mutate(t, good, func(r *PredictCTIRequest) { r.Model = "v99" }), http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e errorResponse
			if code := postJSON(t, ts, "/v1/predict_cti", tc.body, &e); code != tc.want {
				t.Fatalf("status %d (error %q), want %d", code, e.Error, tc.want)
			}
		})
	}
}

// TestHTTPClientKeepsSentinels pins that serving errors survive the wire:
// HTTPClient wraps the sentinel a reply's message begins with and keeps
// the server's message, so a caller tests a remote failure with errors.Is
// as it would a local one. A reply that begins with no sentinel reads
// "http <code>: <msg>".
func TestHTTPClientKeepsSentinels(t *testing.T) {
	f := newStationFixture(t, 1501, 1, 1)
	call := func(s *Server, cti ski.CTI) error {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, err := NewHTTPClient(ts.URL).PredictCTI(context.Background(), cti, f.scheds[0], 0)
		return err
	}

	empty := New(NewRegistry(), Config{Kernel: f.k, Sync: true, Workers: 1})
	defer empty.Close()
	if err := call(empty, f.ctis[0]); !errors.Is(err, ErrNoModel) {
		t.Fatalf("empty registry: got %v, want ErrNoModel", err)
	}

	closed := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	closed.Close()
	if err := call(closed, f.ctis[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server: got %v, want ErrClosed", err)
	}

	live := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	bad := f.ctis[0]
	bad.A = &syz.STI{ID: bad.A.ID, Calls: []sim.Call{{Syscall: int32(len(f.k.Syscalls))}}}
	err := call(live, bad)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-kernel syscall: got %v, want ErrBadRequest", err)
	}
	if !strings.Contains(err.Error(), "outside the served kernel") {
		t.Fatalf("out-of-kernel syscall: %q lost the server's message", err)
	}
	if err := call(live, f.ctis[0]); err != nil {
		t.Fatalf("well-formed request: %v", err)
	}

	err = replyError(http.StatusBadGateway, []byte("upstream gone\n"))
	if err.Error() != "http 502: upstream gone" {
		t.Fatalf("non-sentinel reply: %q", err)
	}
	for _, sentinel := range wireSentinels {
		if errors.Is(err, sentinel) {
			t.Fatalf("non-sentinel reply matches %v", sentinel)
		}
	}
}

// TestHTTPShedsWhenQueueFull pins HTTP admission: /v1/predict_cti never
// waits for queue space, so behind a busy dispatcher a depth-1 queue sheds
// the overflow with 503, which HTTPClient maps back to ErrOverloaded.
func TestHTTPShedsWhenQueueFull(t *testing.T) {
	f := newStationFixture(t, 1601, 1, 1)
	s := f.newServer(t, Config{Kernel: f.k, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := make([]*ctgraph.Graph, 3000)
	for i := range big {
		big[i] = f.graphs[0]
	}
	bigDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: big, Wait: true})
		bigDone <- err
	}()
	for s.Stats().Batches == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	// One request fills the queue and is served after the big one; the
	// others find it full.
	const n = 3
	client := NewHTTPClient(ts.URL)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := client.PredictCTI(context.Background(), f.ctis[0], f.scheds[0], 0)
			errs <- err
		}()
	}
	shed := 0
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case errors.Is(err, ErrOverloaded):
			shed++
		case err != nil:
			t.Fatalf("request: %v", err)
		}
	}
	if err := <-bigDone; err != nil {
		t.Fatalf("big request: %v", err)
	}
	if shed == 0 || s.Stats().Shed != uint64(shed) {
		t.Fatalf("%d requests shed over HTTP, server counted %d; want at least 1 and equal", shed, s.Stats().Shed)
	}
}

// mutate round-trips a known-good body through a tweak.
func mutate(t *testing.T, body []byte, f func(*PredictCTIRequest)) []byte {
	t.Helper()
	var req PredictCTIRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	f(&req)
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHTTPControlEndpoints covers /v1/models, /healthz and /statsz,
// including the draining state after Close.
func TestHTTPControlEndpoints(t *testing.T) {
	f := newStationFixture(t, 1201, 1, 1)
	s := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var models []ModelInfo
	if code := getJSON(t, ts, "/v1/models", &models); code != http.StatusOK {
		t.Fatalf("models status %d", code)
	}
	if len(models) != 1 || models[0].Version != "v1" || !models[0].Active {
		t.Fatalf("models: %+v", models)
	}
	if models[0].Params == 0 {
		t.Fatal("model info missing parameter count")
	}

	var h struct {
		Status string `json:"status"`
		Model  string `json:"model"`
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" || h.Model != "v1" {
		t.Fatalf("healthz: %d %+v", 0, h)
	}

	body := f.ctiBody(t, 0)
	postJSON(t, ts, "/v1/predict_cti", body, nil)
	var st StatsSnapshot
	if code := getJSON(t, ts, "/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if st.Requests != 1 || st.Graphs != 1 || st.ServedByModel["v1"] != 1 {
		t.Fatalf("statsz after one request: %+v", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz after Close: %d %+v", code, h)
	}
	if code := postJSON(t, ts, "/v1/predict_cti", body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("predict after Close: status %d", code)
	}
}

// TestHTTPMethodNotAllowed pins the Go 1.22 method-pattern routing, and
// that /v1/predict_cti is the only scoring route.
func TestHTTPMethodNotAllowed(t *testing.T) {
	f := newFixture(t, 1301, 1, 1)
	s := f.newServer(t, Config{Sync: true, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/predict_cti")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict_cti: status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts, "/v1/predict", []byte(`{}`), nil); code != http.StatusNotFound {
		t.Fatalf("POST /v1/predict: status %d, want 404", code)
	}
}

// TestHTTPRejectsOversizedBody pins the request-size bound.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >16MiB body")
	}
	f := newFixture(t, 1401, 1, 1)
	s := f.newServer(t, Config{Kernel: f.k, Sync: true, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := fmt.Appendf(nil, `{"schedules":[%s{}]}`, bytes.Repeat([]byte(`{},`), maxRequestBytes/3+1))
	if code := postJSON(t, ts, "/v1/predict_cti", big, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d", code)
	}
}
