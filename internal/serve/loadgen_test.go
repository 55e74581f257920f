package serve

import (
	"errors"
	"testing"
	"time"
)

// TestRunLoadgenOpenLoop covers the load generator: exact request count,
// error accounting, monotone percentiles, and argument validation.
func TestRunLoadgenOpenLoop(t *testing.T) {
	cfg := LoadgenConfig{Rate: 2000, Requests: 200, Clients: 16, Seed: 9}
	do := func(i int) error {
		if i%10 == 0 {
			return errors.New("shed")
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	res, err := RunLoadgen(cfg, do)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Aggregate.N != 200 {
		t.Fatalf("requests=%d aggregate.N=%d, want 200", res.Requests, res.Aggregate.N)
	}
	if res.Errors != 20 {
		t.Fatalf("errors=%d, want 20", res.Errors)
	}
	a := res.Aggregate
	if a.P50 > a.P90 || a.P90 > a.P99 || a.P99 > a.Max || a.Max <= 0 {
		t.Fatalf("percentiles not monotone: %+v", a)
	}
	if res.AchievedRPS <= 0 || res.OfferedRPS != 2000 {
		t.Fatalf("rates: achieved=%v offered=%v", res.AchievedRPS, res.OfferedRPS)
	}

	if _, err := RunLoadgen(LoadgenConfig{Rate: 0, Requests: 1}, do); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := RunLoadgen(LoadgenConfig{Rate: 1, Requests: 0}, do); err == nil {
		t.Fatal("zero request count accepted")
	}
}
