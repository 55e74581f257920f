package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// maxRequestBytes bounds one /v1/predict_cti body; oversized requests
// are rejected at decode instead of buffered.
const maxRequestBytes = 16 << 20

// PredictResponse is the /v1/predict_cti reply: per-schedule per-vertex
// probabilities, all scored by one model version.
type PredictResponse struct {
	Model     string      `json:"model"`
	Threshold float64     `json:"threshold"`
	Scores    [][]float64 `json:"scores"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/predict_cti — score one CTI's candidate schedules; the server
//	                       profiles the STIs and builds the graphs itself
//	                       (PredictCTIRequest → PredictResponse)
//	GET  /v1/models      — list registered model versions
//	GET  /healthz        — liveness + active model
//	GET  /statsz         — ledger-style serving counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict_cti", s.handlePredictCTI)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
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
