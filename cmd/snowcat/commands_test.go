package main

import (
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snowcat/internal/serve"
)

// TestSharedFlagSets pins the deduplicated flag registration: every
// subcommand accepts the shared flag groups it advertises (the worker
// pool, the chaos-testing set, the serving set) with one name, default,
// and help text. Each case parses the shared flags followed by -h, so the
// whole set is validated by the flag package without running the
// workload: anything before -h that the command doesn't register would
// fail parsing before flag.ErrHelp is reached.
func TestSharedFlagSets(t *testing.T) {
	// -h prints each command's usage; silence it.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	saved := os.Stderr
	os.Stderr = devnull
	defer func() { os.Stderr = saved }()

	parallel := []string{"-parallel", "2"}
	chaos := []string{"-fault-rate", "0.1", "-fault-seed", "3", "-retries", "2"}
	serving := []string{"-queue", "16", "-deadline-ms", "100", "-cache", "8"}
	cases := []struct {
		name   string
		cmd    func([]string) error
		shared [][]string
	}{
		{"collect", cmdCollect, [][]string{parallel}},
		{"train", cmdTrain, [][]string{parallel}},
		{"eval", cmdEval, [][]string{parallel}},
		{"campaign", cmdCampaign, [][]string{parallel, chaos}},
		{"razzer", cmdRazzer, [][]string{parallel, chaos}},
		{"snowboard", cmdSnowboard, [][]string{parallel, chaos}},
		{"serve", cmdServe, [][]string{parallel, serving}},
		{"loadgen", cmdLoadgen, [][]string{parallel, serving}},
		{"learn", cmdLearn, [][]string{parallel, chaos}},
		{"amplify", cmdAmplify, [][]string{parallel}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-seed", "2"}
			for _, s := range tc.shared {
				args = append(args, s...)
			}
			args = append(args, "-h")
			if err := tc.cmd(args); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("%s rejected a shared flag: %v", tc.name, err)
			}
		})
	}
}

// TestCmdServeLoadgen drives the serving CLI end to end: a timed serve
// run; loadgen -addr against the server serve builds, which must score
// CTI requests; loadgen against the same server started in-process —
// both loadgen runs must finish with zero failed requests — plus the
// flag rejections, including the in-process server's flags alongside
// -addr, where they would do nothing.
func TestCmdServeLoadgen(t *testing.T) {
	if err := cmdServe([]string{"-seed", "3", "-addr", "127.0.0.1:0", "-duration", "100ms"}); err != nil {
		t.Fatal(err)
	}
	s, _, err := newServerFromFlags(3, "small", "", serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := cmdLoadgen([]string{"-seed", "3", "-addr", ts.URL, "-ctis", "4", "-clients", "2",
		"-requests", "20", "-schedules", "2", "-rate", "400"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLoadgen([]string{"-seed", "3", "-ctis", "4", "-clients", "2",
		"-requests", "20", "-schedules", "2", "-rate", "400"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-rate", "-1"},
		{"-addr", ts.URL, "-cache", "1"},
		{"-addr", ts.URL, "-model", "x"},
	} {
		err := cmdLoadgen(args)
		if err == nil {
			t.Fatalf("loadgen %v accepted", args)
		}
		if args[0] == "-addr" && !strings.Contains(err.Error(), args[2]) {
			t.Fatalf("loadgen %v: error %q does not name %s", args, err, args[2])
		}
	}
}

// TestServingFlagDomains pins that serve and loadgen reject a serving
// flag outside its domain with an error naming the flag, instead of
// running with a silent default. The arguments after the bad flag keep a
// run that wrongly accepts it short.
func TestServingFlagDomains(t *testing.T) {
	cmds := []struct {
		name string
		cmd  func([]string) error
		run  []string
	}{
		{"serve", cmdServe, []string{"-addr", "127.0.0.1:0", "-duration", "1ms"}},
		{"loadgen", cmdLoadgen, []string{"-ctis", "1", "-schedules", "1", "-requests", "1", "-clients", "1"}},
	}
	bad := [][]string{
		{"-queue", "0"}, {"-queue", "-1"},
		{"-cache", "0"}, {"-cache", "-1"},
		{"-deadline-ms", "-1"},
	}
	for _, c := range cmds {
		for _, b := range bad {
			t.Run(c.name+" "+strings.Join(b, " "), func(t *testing.T) {
				err := c.cmd(append(append([]string{"-seed", "3"}, b...), c.run...))
				if !errors.Is(err, errFlagDomain) || !strings.Contains(err.Error(), b[0]+" ") {
					t.Fatalf("%s %v: got %v, want an out-of-range error naming %s", c.name, b, err, b[0])
				}
			})
		}
	}
}

// TestCommandFlagDomains pins that razzer and train reject a numeric flag
// outside its domain with an error naming the flag: razzer with no
// schedule per candidate or no candidate used to print "Na / Na" or panic
// on a negative slice bound, and train with a width below 1 panicked
// building the model. Each row's other arguments keep a run that wrongly
// accepts the value short.
func TestCommandFlagDomains(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pic.gob")
	rows := []struct {
		name string
		cmd  func([]string) error
		bad  []string
		run  []string
	}{
		{"razzer", cmdRazzer, []string{"-maxctis", "0"}, []string{"-pool", "4", "-schedules", "2"}},
		{"razzer", cmdRazzer, []string{"-maxctis", "-1"}, []string{"-pool", "4", "-schedules", "2"}},
		{"razzer", cmdRazzer, []string{"-schedules", "0"}, []string{"-pool", "4", "-maxctis", "1"}},
		{"razzer", cmdRazzer, []string{"-schedules", "-1"}, []string{"-pool", "4", "-maxctis", "1"}},
		{"train", cmdTrain, []string{"-dim", "0"}, []string{"-ctis", "2", "-interleavings", "2", "-epochs", "1", "-o", out}},
		{"train", cmdTrain, []string{"-dim", "-3"}, []string{"-ctis", "2", "-interleavings", "2", "-epochs", "1", "-o", out}},
	}
	for _, r := range rows {
		t.Run(r.name+" "+strings.Join(r.bad, " "), func(t *testing.T) {
			err := r.cmd(append(append([]string{"-seed", "3"}, r.bad...), r.run...))
			if !errors.Is(err, errFlagDomain) || !strings.Contains(err.Error(), r.bad[0]+" ") {
				t.Fatalf("%s %v: got %v, want an out-of-range error naming %s", r.name, r.bad, err, r.bad[0])
			}
		})
	}
}

// Table-driven smoke tests for the campaign/razzer/snowboard subcommands:
// flag parsing (newFlagSet uses ContinueOnError, so bad flags come back as
// errors instead of exiting the test binary) and tiny-kernel runs through
// the explore pipeline, including the hook-driven -progress observer and
// the -parallel worker flags.

func TestCmdFlagParsing(t *testing.T) {
	cases := []struct {
		name    string
		cmd     func([]string) error
		args    []string
		wantErr bool
	}{
		{"campaign bad flag", cmdCampaign, []string{"-bogus"}, true},
		{"campaign bad seed", cmdCampaign, []string{"-seed", "notanumber"}, true},
		{"campaign bad size", cmdCampaign, []string{"-size", "huge"}, true},
		{"razzer bad flag", cmdRazzer, []string{"-bogus"}, true},
		{"razzer bad size", cmdRazzer, []string{"-size", "huge"}, true},
		{"snowboard bad flag", cmdSnowboard, []string{"-bogus"}, true},
		{"snowboard bad size", cmdSnowboard, []string{"-size", "huge"}, true},
		{"snowboard missing model", cmdSnowboard, []string{"-model", "/nonexistent/pic.gob"}, true},
		{"campaign missing model", cmdCampaign, []string{"-model", "/nonexistent/pic.gob"}, true},
		{"razzer missing model", cmdRazzer, []string{"-model", "/nonexistent/pic.gob"}, true},
		{"learn bad flag", cmdLearn, []string{"-bogus"}, true},
		{"learn bad strategy", cmdLearn, []string{"-strategy", "s9"}, true},
		{"learn missing model", cmdLearn, []string{"-model", "/nonexistent/pic.gob"}, true},
		{"amplify bad flag", cmdAmplify, []string{"-bogus"}, true},
		{"amplify bad size", cmdAmplify, []string{"-size", "huge"}, true},
		{"amplify missing model", cmdAmplify, []string{"-model", "/nonexistent/pic.gob"}, true},
		{"amplify strategy without model", cmdAmplify, []string{"-strategy", "s1"}, true},
		{"amplify unknown bug", cmdAmplify, []string{"-bug", "999"}, true},
		{"amplify witness without bug", cmdAmplify, []string{"-witness", "0@b1:0;"}, true},
		{"amplify bad witness key", cmdAmplify, []string{"-bug", "0", "-witness", "garbage"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cmd(tc.args)
			if tc.wantErr && err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !tc.wantErr && err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCmdSmallKernelRuns(t *testing.T) {
	dir := t.TempDir()
	model := trainTinyModel(t, dir)
	cases := []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"campaign sequential", cmdCampaign,
			[]string{"-seed", "9", "-model", model, "-ctis", "3", "-budget", "3", "-parallel", "1"}},
		{"campaign parallel with progress", cmdCampaign,
			[]string{"-seed", "9", "-model", model, "-ctis", "3", "-budget", "3", "-parallel", "4", "-progress", "-progress-every", "5"}},
		{"razzer sequential", cmdRazzer,
			[]string{"-seed", "9", "-pool", "8", "-schedules", "8", "-maxctis", "3", "-parallel", "1"}},
		{"razzer parallel with model", cmdRazzer,
			[]string{"-seed", "9", "-model", model, "-pool", "8", "-schedules", "8", "-maxctis", "3", "-parallel", "4"}},
		{"snowboard parallel", cmdSnowboard,
			[]string{"-seed", "9", "-model", model, "-members", "5", "-trials", "10", "-parallel", "4"}},
		{"learn retrained s4", cmdLearn,
			[]string{"-seed", "9", "-model", model, "-ctis", "4", "-budget", "3",
				"-retrain-every", "20", "-min-new", "2", "-tune", "-strategy", "s4", "-parallel", "2"}},
		{"learn frozen", cmdLearn,
			[]string{"-seed", "9", "-model", model, "-ctis", "3", "-budget", "3", "-retrain-every", "0"}},
		{"amplify exhaustive", cmdAmplify,
			[]string{"-seed", "3", "-bug", "6", "-samples", "50", "-trials", "5", "-rounds", "2", "-parallel", "2"}},
		{"amplify guided", cmdAmplify,
			[]string{"-seed", "3", "-bug", "5", "-samples", "200", "-trials", "5", "-rounds", "2",
				"-model", model, "-top-k", "4", "-strategy", "s1", "-parallel", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return tc.cmd(tc.args) })
			if err != nil {
				t.Fatal(err)
			}
			out = strings.ReplaceAll(out, dir, "$TMP")
			checkGolden(t, filepath.Join("testdata", strings.ReplaceAll(tc.name, " ", "_")+".golden"), out)
		})
	}
}

// update rewrites the golden files instead of comparing against them:
// go test ./cmd/snowcat -run TestCmdSmallKernelRuns -update
var update = flag.Bool("update", false, "rewrite cmd/snowcat/testdata/*.golden")

// captureStdout runs fn with os.Stdout redirected to a temp file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	runErr := fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// checkGolden compares got with the golden file at path byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s (run with -update to accept)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
