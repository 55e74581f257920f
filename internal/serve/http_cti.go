package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// WireCall is one syscall of an STI program on the wire.
type WireCall struct {
	Syscall int32   `json:"syscall"`
	Args    []int64 `json:"args,omitempty"`
}

// WireSTI is one single-thread test program.
type WireSTI struct {
	ID    int64      `json:"id"`
	Calls []WireCall `json:"calls"`
}

// WireCTI is a concurrent test input: two STI programs run in parallel.
type WireCTI struct {
	ID int64   `json:"id"`
	A  WireSTI `json:"a"`
	B  WireSTI `json:"b"`
}

// WireHint is one scheduling hint of the candidate schedule: thread yields
// after instruction (block, idx).
type WireHint struct {
	Thread int32 `json:"thread"`
	Block  int32 `json:"block"`
	Idx    int32 `json:"idx"`
}

// WireIRQHint is one interrupt injection of a candidate schedule.
type WireIRQHint struct {
	Thread int32 `json:"thread"`
	Block  int32 `json:"block"`
	Idx    int32 `json:"idx"`
	IRQ    int32 `json:"irq"`
}

// WireSchedule is one candidate interleaving of the CTI.
type WireSchedule struct {
	Hints []WireHint    `json:"hints,omitempty"`
	IRQs  []WireIRQHint `json:"irqs,omitempty"`
}

// PredictCTIRequest is the /v1/predict_cti body: a raw CTI plus candidate
// schedules. The client ships no graphs — the server profiles the STIs and
// builds the base graph itself (once, LRU-cached in its CTIStation).
type PredictCTIRequest struct {
	// Model pins the request to a version; empty serves the active model.
	Model string `json:"model,omitempty"`
	// DeadlineMS is a relative per-request deadline in milliseconds;
	// 0 applies the server default.
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
	CTI        WireCTI        `json:"cti"`
	Schedules  []WireSchedule `json:"schedules"`
}

// EncodeCTI converts a CTI to its wire form.
func EncodeCTI(cti ski.CTI) WireCTI {
	return WireCTI{ID: cti.ID, A: encodeSTI(cti.A), B: encodeSTI(cti.B)}
}

func encodeSTI(s *syz.STI) WireSTI {
	w := WireSTI{ID: s.ID, Calls: make([]WireCall, len(s.Calls))}
	for i, c := range s.Calls {
		w.Calls[i] = WireCall{Syscall: c.Syscall, Args: c.Args}
	}
	return w
}

// EncodeSchedule converts a schedule to its wire form.
func EncodeSchedule(s ski.Schedule) WireSchedule {
	var w WireSchedule
	for _, h := range s.Hints {
		w.Hints = append(w.Hints, WireHint{Thread: h.Thread, Block: h.Ref.Block, Idx: h.Ref.Idx})
	}
	for _, h := range s.IRQs {
		w.IRQs = append(w.IRQs, WireIRQHint{Thread: h.Thread, Block: h.Ref.Block, Idx: h.Ref.Idx, IRQ: h.IRQ})
	}
	return w
}

// CTI converts the wire CTI into the in-memory form.
func (w WireCTI) CTI() ski.CTI {
	return ski.CTI{ID: w.ID, A: w.A.sti(), B: w.B.sti()}
}

func (w WireSTI) sti() *syz.STI {
	s := &syz.STI{ID: w.ID, Calls: make([]sim.Call, len(w.Calls))}
	for i, c := range w.Calls {
		s.Calls[i] = sim.Call{Syscall: c.Syscall, Args: c.Args}
	}
	return s
}

// Schedule converts the wire schedule into the in-memory form.
func (w WireSchedule) Schedule() ski.Schedule {
	var s ski.Schedule
	for _, h := range w.Hints {
		s.Hints = append(s.Hints, ski.Hint{Thread: h.Thread, Ref: sim.InstrRef{Block: h.Block, Idx: h.Idx}})
	}
	for _, h := range w.IRQs {
		s.IRQs = append(s.IRQs, ski.IRQHint{Thread: h.Thread, Ref: sim.InstrRef{Block: h.Block, Idx: h.Idx}, IRQ: h.IRQ})
	}
	return s
}

// Validate checks the request's structural invariants against the served
// kernel: syscall numbers inside its syscall table, hint threads 0/1 and
// IRQ numbers inside its IRQ table. Profiling is deterministic and
// sandboxed, so validation only needs to keep indices in range —
// semantics are the simulator's problem.
func (r *PredictCTIRequest) Validate(k *kernel.Kernel) error {
	if r.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline_ms", ErrBadRequest)
	}
	if len(r.Schedules) == 0 {
		return fmt.Errorf("%w: no schedules", ErrBadRequest)
	}
	if err := r.CTI.A.validate(len(k.Syscalls)); err != nil {
		return fmt.Errorf("%w: cti %d program a: %v", ErrBadRequest, r.CTI.ID, err)
	}
	if err := r.CTI.B.validate(len(k.Syscalls)); err != nil {
		return fmt.Errorf("%w: cti %d program b: %v", ErrBadRequest, r.CTI.ID, err)
	}
	for i, s := range r.Schedules {
		for j, h := range s.Hints {
			if h.Thread != 0 && h.Thread != 1 {
				return fmt.Errorf("%w: schedule %d hint %d: thread %d not in {0,1}", ErrBadRequest, i, j, h.Thread)
			}
		}
		for j, h := range s.IRQs {
			if h.Thread != 0 && h.Thread != 1 {
				return fmt.Errorf("%w: schedule %d irq %d: thread %d not in {0,1}", ErrBadRequest, i, j, h.Thread)
			}
			if h.IRQ < 0 || int(h.IRQ) >= len(k.IRQs) {
				return fmt.Errorf("%w: schedule %d irq %d: irq %d outside the served kernel (%d irqs)",
					ErrBadRequest, i, j, h.IRQ, len(k.IRQs))
			}
		}
	}
	return nil
}

func (w WireSTI) validate(numSyscalls int) error {
	if len(w.Calls) == 0 {
		return fmt.Errorf("sti%d has no calls", w.ID)
	}
	for i, c := range w.Calls {
		if c.Syscall < 0 || c.Syscall >= int32(numSyscalls) {
			return fmt.Errorf("call %d: syscall %d outside the served kernel (%d syscalls)",
				i, c.Syscall, numSyscalls)
		}
	}
	return nil
}

// DecodeCTIRequest parses a /v1/predict_cti body and validates it against
// the served kernel. It never panics on malformed input — FuzzServeRequest
// pins that.
func DecodeCTIRequest(data []byte, k *kernel.Kernel) (*PredictCTIRequest, error) {
	var req PredictCTIRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := req.Validate(k); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handlePredictCTI(w http.ResponseWriter, r *http.Request) {
	if s.station == nil {
		writeError(w, http.StatusNotImplemented, ErrNoStation)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeCTIRequest(body, s.station.k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scheds := make([]ski.Schedule, len(req.Schedules))
	for i, ws := range req.Schedules {
		scheds[i] = ws.Schedule()
	}
	opts := Request{Model: req.Model}
	if req.DeadlineMS > 0 {
		opts.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	resp, err := s.PredictCTI(r.Context(), req.CTI.CTI(), scheds, opts)
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
