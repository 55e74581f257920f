package strategy

import (
	"strings"
	"testing"
)

// scored builds a Prediction with raw scores around a 0.5 threshold.
func scored(th float64, scores ...float64) Prediction {
	labels := make([]bool, len(scores))
	for i, s := range scores {
		labels[i] = s >= th
	}
	return Prediction{Labels: labels, Scores: scores, Threshold: th}
}

func TestS4SelectsBorderlineScores(t *testing.T) {
	s := NewS4(0.1)
	g := graphWithBlocks(1, 2)
	// Both scores far from the threshold: the model is confident, boring.
	if s.Interesting(g, scored(0.5, 0.95, 0.02)) {
		t.Fatal("confident prediction selected")
	}
	// One score inside the ±0.1 band: uncertain, interesting.
	if !Select(s, g, scored(0.5, 0.55, 0.02)) {
		t.Fatal("borderline prediction rejected")
	}
}

func TestS4UsesPredictionThreshold(t *testing.T) {
	s := NewS4(0.1)
	g := graphWithBlocks(1)
	// 0.25 is borderline only against a 0.3 threshold, not 0.5 — S4 must
	// measure uncertainty against the operating point the predictor
	// actually used (each hot-swapped version carries its own).
	if s.Interesting(g, scored(0.5, 0.25)) {
		t.Fatal("0.25 vs threshold 0.5 is confident")
	}
	if !s.Interesting(g, scored(0.3, 0.25)) {
		t.Fatal("0.25 vs threshold 0.3 is uncertain")
	}
}

func TestS4NoScoresNothingUncertain(t *testing.T) {
	s := NewS4(0.1)
	g := graphWithBlocks(1, 2)
	// Labels without raw scores carry no uncertainty signal.
	if s.Interesting(g, pr(true, false)) {
		t.Fatal("scoreless prediction selected")
	}
}

func TestS4TrialLimit(t *testing.T) {
	s := NewS4(0.1)
	g := graphWithBlocks(7)
	p := scored(0.5, 0.5)
	for i := 0; i < s4Limit; i++ {
		if !Select(s, g, p) {
			t.Fatalf("selection %d rejected before the limit", i)
		}
	}
	if Select(s, g, p) {
		t.Fatal("persistently borderline block selected past the limit")
	}
	s.Reset()
	if !Select(s, g, p) {
		t.Fatal("Reset did not clear the trial counts")
	}
}

func TestS4Registry(t *testing.T) {
	st, err := New("s4")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*S4).Margin != DefaultS4Margin {
		t.Fatalf("default margin %v", st.(*S4).Margin)
	}
	st, err = New("s4:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*S4).Margin != 0.25 {
		t.Fatalf("margin %v, want 0.25", st.(*S4).Margin)
	}
	for _, bad := range []string{"s4:0", "s4:1.5", "s4:x"} {
		if _, err := New(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	if !strings.HasPrefix(st.Name(), "S4(") {
		t.Fatalf("name %q", st.Name())
	}
}

func TestFromScoresCarriesThreshold(t *testing.T) {
	p := FromScores([]float64{0.1, 0.9}, 0.37)
	if p.Threshold != 0.37 {
		t.Fatalf("threshold %v", p.Threshold)
	}
	if p.Labels[0] || !p.Labels[1] {
		t.Fatalf("labels %v", p.Labels)
	}
}
