package ski

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/syz"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/exec_digest.golden")

// The executor digest pins every observable bit of a fixed corpus of
// executions — results, error texts and the machine's step count at a
// failure — against a golden file. Any change to sim stepping, the ski
// scheduling loop or the access-log recording that moves a single output
// bit fails here, with the name of the case that moved; -update rewrites
// the golden only for a change meant to alter executions.

// digestCase is one execution of the corpus.
type digestCase struct {
	name  string
	k     *kernel.Kernel
	cti   CTI
	sched Schedule
	limit int
	hooks *ExecHooks
}

// digestOutcome is everything one corpus execution observes.
type digestOutcome struct {
	res   *Result
	err   string
	steps int // the machine's m.Steps when the run ended
}

// preemptHooks seizes a deterministic, stateless subset of block entries,
// so the same hook value is safe to share between goroutines.
var preemptHooks = &ExecHooks{SchedulePoint: func(thread int32, ref sim.InstrRef, step int) HookAction {
	if (int(ref.Block)*7+step+int(thread))%11 == 0 {
		return HookPreempt
	}
	return HookContinue
}}

// digestKernel builds a hand-written kernel: fns lists functions, each a
// list of blocks, each a list of instructions; block IDs are global.
func digestKernel(fns [][][]kasm.Instr, syscalls []kernel.Syscall) *kernel.Kernel {
	k := &kernel.Kernel{Version: "malformed", NumGlobals: 2, NumLocks: 1, InitMem: make([]int64, 2), Syscalls: syscalls}
	for fi, blocks := range fns {
		fn := &kasm.Function{ID: int32(fi), Name: "f"}
		for _, instrs := range blocks {
			b := &kasm.Block{ID: int32(len(k.Blocks)), Fn: int32(fi), Instrs: instrs}
			k.Blocks = append(k.Blocks, b)
			fn.Blocks = append(fn.Blocks, b.ID)
		}
		k.Funcs = append(k.Funcs, fn)
	}
	return k
}

// malformedCases are the corrupted kernels of internal/sim's typed-error
// suite, plus the deferred failures: a not-taken branch and a call that
// leave the last block of a function only fail when the next instruction
// is fetched, and an empty function or block fails at its first fetch.
func malformedCases() []digestCase {
	sc := func(fn int32) kernel.Syscall { return kernel.Syscall{Name: "s", Fn: fn} }
	badJump := digestKernel([][][]kasm.Instr{{{{Op: kasm.OpJmp, Target: 99}}}}, []kernel.Syscall{sc(0)})
	fallOff := digestKernel([][][]kasm.Instr{{{{Op: kasm.OpNop}}}}, []kernel.Syscall{sc(0)})
	badCall := digestKernel([][][]kasm.Instr{{
		{{Op: kasm.OpCall, Callee: 42}, {Op: kasm.OpRet}},
	}}, []kernel.Syscall{sc(0), sc(77)})
	branchOff := digestKernel([][][]kasm.Instr{{
		{{Op: kasm.OpStore, Addr: 0, Rs: 0}, {Op: kasm.OpCmpI, Rd: 0, Imm: 0}, {Op: kasm.OpJne, Target: 0}},
	}}, []kernel.Syscall{sc(0)})
	callOff := digestKernel([][][]kasm.Instr{
		{{{Op: kasm.OpLoad, Rd: 1, Addr: 1}, {Op: kasm.OpCall, Callee: 1}}},
		{{{Op: kasm.OpStore, Addr: 1, Rs: 1}, {Op: kasm.OpRet}}},
	}, []kernel.Syscall{sc(0)})
	valid := digestKernel([][][]kasm.Instr{{{{Op: kasm.OpNop}, {Op: kasm.OpRet}}}}, []kernel.Syscall{sc(0)})
	emptyFn := digestKernel([][][]kasm.Instr{{}}, []kernel.Syscall{sc(0)})
	emptyBlock := digestKernel([][][]kasm.Instr{{{{Op: kasm.OpNop}, {Op: kasm.OpJmp, Target: 1}}, {}}}, []kernel.Syscall{sc(0)})
	ok := []sim.Call{{Syscall: 0}}
	sti := func(calls ...sim.Call) *syz.STI { return &syz.STI{Calls: calls} }
	mk := func(name string, k *kernel.Kernel, a, b *syz.STI) digestCase {
		return digestCase{name: "malformed/" + name, k: k, cti: CTI{ID: 99, A: a, B: b}}
	}
	return []digestCase{
		mk("bad_jump", badJump, sti(ok...), sti()),
		mk("bad_jump_thread_b", badJump, sti(), sti(ok...)),
		mk("fall_off_function", fallOff, sti(ok...), sti(ok...)),
		mk("syscall_out_of_range", badCall, sti(sim.Call{Syscall: 99}), sti()),
		mk("syscall_negative", badCall, sti(sim.Call{Syscall: -1}), sti()),
		mk("syscall_unknown_function", badCall, sti(sim.Call{Syscall: 1}), sti()),
		mk("call_unknown_callee", badCall, sti(ok...), sti(ok...)),
		mk("second_syscall_out_of_range", valid, sti(), sti(sim.Call{Syscall: 0}, sim.Call{Syscall: 5})),
		mk("branch_not_taken_off_end", branchOff, sti(ok...), sti()),
		mk("call_returns_off_end", callOff, sti(ok...), sti(ok...)),
		mk("empty_function", emptyFn, sti(ok...), sti()),
		mk("empty_block", emptyBlock, sti(), sti(ok...)),
	}
}

// generatedCases samples nCTIs CTIs on k and runs each under a serial
// schedule, two- and four-hint PCT schedules, IRQ injections (sampled,
// negative and out of range), preempting schedule-point hooks, and two
// step budgets, the smaller of which trips on most CTIs.
func generatedCases(tb testing.TB, name string, k *kernel.Kernel, seed uint64, nCTIs int) []digestCase {
	g := syz.NewGenerator(k, seed)
	var out []digestCase
	for i := 0; i < nCTIs; i++ {
		cti := CTI{ID: int64(i), A: g.Generate(), B: g.Generate()}
		pa, err := syz.Run(k, cti.A)
		if err != nil {
			tb.Fatal(err)
		}
		pb, err := syz.Run(k, cti.B)
		if err != nil {
			tb.Fatal(err)
		}
		s := NewSampler(pa, pb, seed*31+uint64(i))
		irqs := s.NextWithIRQs(3, len(k.IRQs))
		wild := s.Next()
		wild.IRQs = []IRQHint{
			{Thread: 0, Ref: pa.InstrTrace[len(pa.InstrTrace)/2], IRQ: -1},
			{Thread: 1, Ref: pb.InstrTrace[len(pb.InstrTrace)/3], IRQ: int32(len(k.IRQs))},
			{Thread: 1, Ref: pb.InstrTrace[0], IRQ: 0},
		}
		add := func(tag string, sched Schedule, limit int, hooks *ExecHooks) {
			out = append(out, digestCase{
				name: fmt.Sprintf("%s/cti%02d/%s", name, i, tag),
				k:    k, cti: cti, sched: sched, limit: limit, hooks: hooks,
			})
		}
		add("serial", Schedule{}, 0, nil)
		add("pct2", s.Next(), 0, nil)
		add("pct4", s.NextD(4), 0, nil)
		add("irq", irqs, 0, nil)
		add("irq_wild", wild, 0, nil)
		add("hooked", s.Next(), 0, preemptHooks)
		add("hooked_irq", irqs, 0, preemptHooks)
		add("limit60", s.Next(), 60, nil)
		add("limit400", irqs, 400, nil)
	}
	return out
}

// digestCorpus is the fixed corpus: CTIs on the campaign kernel
// (DefaultConfig(11)), on that kernel with three IRQ handlers, and on the
// small unit-test kernel with IRQs, plus the malformed kernels.
func digestCorpus(tb testing.TB) []digestCase {
	withIRQs := func(cfg kernel.GenConfig) kernel.GenConfig {
		cfg.NumIRQs = 3
		return cfg
	}
	var cs []digestCase
	cs = append(cs, generatedCases(tb, "default11", kernel.Generate(kernel.DefaultConfig(11)), 12, 8)...)
	cs = append(cs, generatedCases(tb, "default11irq", kernel.Generate(withIRQs(kernel.DefaultConfig(11))), 13, 6)...)
	cs = append(cs, generatedCases(tb, "small25irq", kernel.Generate(withIRQs(kernel.SmallConfig(25))), 26, 8)...)
	return append(cs, malformedCases()...)
}

// runDigestCase executes one case on its own machine, keeping the machine
// so a failure's step count is observable.
func runDigestCase(c digestCase) digestOutcome {
	m := sim.NewMachine(c.k)
	m.Limit = c.limit
	res, err := runSchedule(c.k, c.cti, c.sched, [2]*sim.Thread{
		sim.NewThread(m, 0, c.cti.A.Calls),
		sim.NewThread(m, 1, c.cti.B.Calls),
	}, c.hooks)
	out := digestOutcome{res: res, steps: m.Steps}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// digestWriter feeds a canonical encoding into a hash; every slice is
// length-prefixed and a nil slice is told from an empty one.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) int(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	d.h.Write(b[:])
}

func (d digestWriter) length(isNil bool, n int) {
	if isNil {
		d.int(-1)
		return
	}
	d.int(int64(n))
}

func (d digestWriter) bools(s []bool) {
	d.length(s == nil, len(s))
	for _, v := range s {
		if v {
			d.h.Write([]byte{1})
		} else {
			d.h.Write([]byte{0})
		}
	}
}

func (d digestWriter) accesses(s []syz.Access) {
	d.length(s == nil, len(s))
	for _, a := range s {
		d.int(int64(a.Ref.Block))
		d.int(int64(a.Ref.Idx))
		if a.Write {
			d.int(1)
		} else {
			d.int(0)
		}
		d.int(int64(a.Addr))
		d.int(a.Value)
		d.int(int64(a.Lockset))
		d.int(int64(a.Step))
	}
}

func (d digestWriter) refs(s []sim.InstrRef) {
	d.length(s == nil, len(s))
	for _, r := range s {
		d.int(int64(r.Block))
		d.int(int64(r.Idx))
	}
}

func (d digestWriter) int32s(s []int32) {
	d.length(s == nil, len(s))
	for _, v := range s {
		d.int(int64(v))
	}
}

func (d digestWriter) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// digestLine renders one outcome as a golden line: the error text and
// step count verbatim for a failed run, a hash of every Result field
// otherwise.
func digestLine(name string, o digestOutcome) string {
	if o.res == nil {
		return fmt.Sprintf("%s err=%q steps=%d", name, o.err, o.steps)
	}
	d := digestWriter{sha256.New()}
	r := o.res
	d.bools(r.Covered)
	d.bools(r.CoveredBy[0])
	d.bools(r.CoveredBy[1])
	d.accesses(r.Accesses[0])
	d.accesses(r.Accesses[1])
	d.int32s(r.BugsHit)
	d.int(int64(r.HintsFired))
	d.int(int64(r.Switches))
	d.int(int64(r.Steps))
	return fmt.Sprintf("%s ok steps=%d accesses=%d/%d %s", name, o.steps, len(r.Accesses[0]), len(r.Accesses[1]), d.sum())
}

// profileLine renders the sequential profile of an STI, the other caller
// of the simulator's step loop.
func profileLine(name string, p *syz.Profile) string {
	d := digestWriter{sha256.New()}
	d.bools(p.Covered)
	d.int32s(p.BlockTrace)
	d.accesses(p.Accesses)
	d.refs(p.InstrTrace)
	d.int(int64(p.Steps))
	return fmt.Sprintf("%s profile steps=%d %s", name, p.Steps, d.sum())
}

func TestExecDigestGolden(t *testing.T) {
	var lines []string
	profiled := make(map[*syz.STI]bool)
	for _, c := range digestCorpus(t) {
		for th, sti := range []*syz.STI{c.cti.A, c.cti.B} {
			if profiled[sti] || strings.HasPrefix(c.name, "malformed/") {
				continue
			}
			profiled[sti] = true
			p, err := syz.Run(c.k, sti)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, profileLine(fmt.Sprintf("%s/thread%d", c.name[:strings.LastIndex(c.name, "/")], th), p))
		}
		lines = append(lines, digestLine(c.name, runDigestCase(c)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "exec_digest.golden")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("executor digest moved at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestExecCorpusConcurrent runs the whole corpus from several goroutines at
// once, each in its own order, and requires every outcome to equal the
// serial one: pooled executor state must never leak between executions.
func TestExecCorpusConcurrent(t *testing.T) {
	cases := digestCorpus(t)
	serial := make([]digestOutcome, len(cases))
	for i, c := range cases {
		serial[i] = runDigestCase(c)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range cases {
				i := (j + w*len(cases)/workers) % len(cases)
				if w%2 == 1 {
					i = len(cases) - 1 - i
				}
				c := cases[i]
				got := runDigestCase(c)
				if !reflect.DeepEqual(got, serial[i]) {
					errs <- fmt.Sprintf("worker %d: %s differs from its serial run", w, c.name)
					return
				}
				if c.limit == 0 && c.k.Version != "malformed" {
					res, err := ExecuteHooked(c.k, c.cti, c.sched, 0, c.hooks)
					if err != nil || !reflect.DeepEqual(res, serial[i].res) {
						errs <- fmt.Sprintf("worker %d: %s via ExecuteHooked differs (err %v)", w, c.name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
