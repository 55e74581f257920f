package stream

import (
	"errors"
	"reflect"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/faults"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/syz"
)

// errScorerDown is the failing scorer's error: the scoring backend went
// away mid-round.
var errScorerDown = errors.New("scorer down")

// failingScorer scores through the in-process predictor, except where the
// fault injector fires: there the call fails, as a remote scorer that died
// mid-round would. attempt numbers the failures, so a replayed round draws
// a fresh decision instead of failing forever.
type failingScorer struct {
	pred    *predictor.PIC
	inj     *faults.Injector
	attempt int
}

func (f *failingScorer) score(o Outcome, g *ctgraph.Graph) ([]float64, error) {
	if f.inj.Decide(o.CTI.ID, o.Sched.Key(), f.attempt) != faults.None {
		f.attempt++
		return nil, errScorerDown
	}
	return f.pred.Score(g), nil
}

// The chaos property: a scoring call failing mid-stream and the loop
// replaying the interrupted round from the top leaves the accumulated
// dataset bit-identical to an undisturbed run — the replayed prefix
// deduplicates instead of double-counting.
func TestBusShardDeathMidStreamReplays(t *testing.T) {
	col, outs := streamFixture(t, 61, 4, 3)
	clean, _ := drain(t, col, outs, Config{})

	m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: 62, PosWeight: 8})
	scorer := &failingScorer{
		pred: predictor.NewPIC(m, pic.NewTokenCache(col.K, m.Vocab), "chaos"),
		// The deterministic fault injector picks which scoring calls fail
		// — the same chaos at every run of this test.
		inj: faults.New(63, 0.3),
	}

	// Per-CTI base graphs, so the loop can score the graphs the stream
	// will label (as the learn loop scores candidates before executing).
	bases := map[int64]*ctgraph.Base{}
	base := func(o Outcome) *ctgraph.Base {
		b, ok := bases[o.CTI.ID]
		if !ok {
			pa, err := syz.Run(col.K, o.CTI.A)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := syz.Run(col.K, o.CTI.B)
			if err != nil {
				t.Fatal(err)
			}
			b = col.Builder.BuildBase(o.CTI, pa, pb)
			bases[o.CTI.ID] = b
		}
		return b
	}

	bus := New(col, Config{Buffer: 3, Workers: 2})

	// The loop streams in rounds: publish, then score. A failed scoring
	// call aborts the round after some outcomes already published; the
	// loop replays the round from the top, so the bus sees the aborted
	// prefix twice.
	const roundLen = 4
	for start := 0; start < len(outs); start += roundLen {
		end := start + roundLen
		if end > len(outs) {
			end = len(outs)
		}
		round := outs[start:end]
		for {
			err := func() error {
				for _, o := range round {
					bus.Publish(o.CTI, o.Sched, o.Res)
					if _, err := scorer.score(o, base(o).WithSchedule(o.Sched)); err != nil {
						return err
					}
				}
				return nil
			}()
			if err == nil {
				break
			}
			if !errors.Is(err, errScorerDown) {
				t.Fatal(err)
			}
			// Replay the whole round; already-published outcomes dedupe.
		}
	}
	if scorer.attempt == 0 {
		t.Fatal("fault injector never failed a scoring call; raise the rate")
	}

	chaotic, err := bus.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, chaotic) {
		t.Fatal("scorer-failure replay changed the accumulated dataset")
	}
	if st := bus.Stats(); st.Deduped == 0 {
		t.Fatal("replay never exercised the dedupe path")
	}
}
