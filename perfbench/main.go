// Command perfbench is snowcat's wall-clock benchmark. It runs one
// workload for a fixed time, checks every output against a reference
// computed in set-up, and prints the workload's metrics as one JSON object
// on the last line of standard output:
//
//	perfbench --workload campaign-pct --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run alternates untraced units with traced ones, rebuilt from the public
// pieces of each layer and timed from outside, and the metrics are the
// per-layer ones. README.md in this directory defines every workload and
// metric name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named benchmark input set.
type workload struct {
	name string
	// setup builds the fixture once; the harness times it.
	setup func(seed uint64) (fixture, error)
}

// fixture is a built workload, ready to be measured.
type fixture interface {
	// config describes the kernel, model and run shape for the record.
	config() map[string]any
	// reference computes the outputs every measured operation is checked
	// against (not part of setup_s).
	reference() error
	// measure runs untraced for d and reports the end-to-end metrics.
	measure(d time.Duration) outcome
	// measureTraced alternates untraced and traced operations for d and
	// reports the per-layer metrics.
	measureTraced(d time.Duration) outcome
	// close releases servers and listeners.
	close()
}

// outcome is what one measurement produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	spans             []span // one traced operation's spans, traced runs only
}

var workloads = []workload{
	{name: "campaign-pct", setup: setupCampaignPCT},
	{name: "campaign-mlpct", setup: setupCampaignMLPCT},
	{name: "learn-retrain", setup: setupLearn},
	{name: "serve-cti", setup: setupServe},
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, x := range workloads {
			names = append(names, x.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}

	var fx fixture
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if fx != nil {
			fx.close()
		}
		fx = f
	}
	defer fx.close()
	if err := fx.reference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	d := time.Duration(seconds) * time.Second
	var out outcome
	steal0, total0, ticked := cpuTicks()
	if trace == 1 {
		out = fx.measureTraced(d)
	} else {
		out = fx.measure(d)
		out.metrics["setup_s"] = median(setups)
	}
	host := hostInfo()
	if steal1, total1, ok := cpuTicks(); ticked && ok && total1 > total0 {
		host["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}

	rec := record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Host: host, Config: fx.config(),
		Attempted: out.attempted, Failed: out.failed,
		FailFrac:  float64(out.failed) / float64(max(out.attempted, 1)),
		SetupRuns: setups, Metrics: out.metrics,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", line)
	if trace == 1 {
		path, err := writeTrace(rec, out.spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", path)
	}
	printTable(rec)
	return printResult(trace, out)
}

// record is the full run record: host, configuration and every metric.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Host      map[string]any     `json:"host"`
	Config    map[string]any     `json:"config"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	SetupRuns []float64          `json:"setup_runs_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

func hostInfo() map[string]any {
	host, _ := os.Hostname() // an unnamed host is recorded as ""
	return map[string]any{
		"hostname":   host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuTicks reads the host's cumulative steal and total CPU ticks from
// /proc/stat, so the record shows how much CPU the hypervisor took away
// while the run measured. ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// writeTrace stores the record and one traced operation's spans under
// .bench_build/traces in the working directory.
func writeTrace(rec record, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", rec.Workload, rec.Seed))
	data, err := json.Marshal(struct {
		Record record `json:"record"`
		Spans  []span `json:"spans"`
	}{rec, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// printTable prints every metric by name with its unit, one per line.
func printTable(rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %14.6g %s\n", "fail_frac", rec.FailFrac, "ratio")
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, rec.Metrics[n], unitOf(n))
	}
}

// printResult prints the last line: the metrics the run's mode declares,
// each with its unit.
func printResult(trace int, out outcome) error {
	names := endToEnd
	if trace == 1 {
		names = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		ms[n] = metric{Value: v, Unit: unitOf(n)}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
