package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// FuzzServeRequest throws arbitrary bytes at the /v1/predict_cti boundary
// — DecodeCTIRequest, then the station entry, WithSchedule and the model,
// as the handler runs them through PredictCTI — and pins three
// properties: malformed input is rejected with ErrBadRequest and never
// panics; every accepted request survives an encode → decode round trip
// unchanged; and every accepted request scores without panicking, one
// finite probability in [0,1] per vertex — Validate really does screen
// everything the scoring path indexes with.
func FuzzServeRequest(f *testing.F) {
	kc := kernel.SmallConfig(3)
	kc.NumIRQs = 2 // so valid IRQ injections reach the graph builder
	k := kernel.Generate(kc)
	m := pic.New(pic.Config{Dim: 8, Layers: 1, Seed: 4})
	reg := NewRegistry()
	if err := reg.Load("v1", m, pic.NewTokenCache(k, m.Vocab)); err != nil {
		f.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{Kernel: k, Sync: true, Workers: 1})
	defer s.Close()

	gen := syz.NewGenerator(k, 5)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		f.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		f.Fatal(err)
	}
	sampler := ski.NewSampler(pa, pb, 6)
	good := PredictCTIRequest{CTI: EncodeCTI(ski.CTI{ID: 1, A: a, B: b})}
	for i := 0; i < 2; i++ {
		good.Schedules = append(good.Schedules, EncodeSchedule(sampler.Next()))
	}
	seed := func(mut func(r *PredictCTIRequest)) {
		r := good
		r.Schedules = append([]WireSchedule(nil), good.Schedules...)
		mut(&r)
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(func(r *PredictCTIRequest) {})
	seed(func(r *PredictCTIRequest) { r.Model, r.DeadlineMS = "v1", 5 })
	seed(func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{Thread: 1, IRQ: 1}} })
	seed(func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{IRQ: -1}} })
	seed(func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{IRQ: 2}} })
	seed(func(r *PredictCTIRequest) { r.Schedules = nil })
	seed(func(r *PredictCTIRequest) { r.Schedules[1].Hints = []WireHint{{Thread: 2}} })
	f.Add([]byte(`{"cti":{"a":{"calls":[{"syscall":-1}]},"b":{"calls":[{"syscall":0}]}},"schedules":[{}]}`))
	f.Add([]byte(`not json`))

	var nextID int64
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeCTIRequest(data, k)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection not tagged ErrBadRequest: %v", err)
			}
			return
		}

		// Round trip: the canonical encoding is a fixed point — re-marshal,
		// re-decode, re-marshal must reproduce the bytes. (DeepEqual on the
		// structs would be too strict: JSON cannot distinguish nil from
		// empty slices, and field-name case folds on decode.)
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal of accepted request: %v", err)
		}
		again, err := DecodeCTIRequest(out, k)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out, err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal after round trip: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding not a fixed point:\n was %s\n now %s", out, out2)
		}

		// Every accepted request must score cleanly. A fresh CTI ID per
		// input keeps inputs independent: the station would otherwise hand
		// out a base an earlier input cached under the same IDs. The model
		// pin and deadline are admission, not input checks, so they are
		// left out.
		cti := req.CTI.CTI()
		nextID++
		cti.ID = nextID
		scheds := make([]ski.Schedule, len(req.Schedules))
		for i, ws := range req.Schedules {
			scheds[i] = ws.Schedule()
		}
		resp, err := s.PredictCTI(context.Background(), cti, scheds, Request{})
		if err != nil {
			// Only the simulator can refuse an accepted request, when a
			// program fails to profile; that is an error, not a panic.
			return
		}
		e, err := s.station.Entry(cti)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range resp.Scores {
			if n := len(e.base.WithSchedule(scheds[i]).Vertices); len(row) != n {
				t.Fatalf("schedule %d: %d scores for %d vertices", i, len(row), n)
			}
			for j, p := range row {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("schedule %d vertex %d: probability %v", i, j, p)
				}
			}
		}
	})
}
