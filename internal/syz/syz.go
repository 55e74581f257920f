// Package syz generates sequential test inputs (STIs) and profiles their
// single-threaded executions.
//
// It plays the role Syzkaller plays for Snowcat (§4): a source of syscall
// sequences, plus the per-STI information the downstream pipeline consumes —
// sequential block coverage (the SCBs), the dynamic control-flow edges, the
// ordered memory-access trace (for inter-/intra-thread data-flow edges and
// race detection), and the dynamic instruction trace (for scheduling-hint
// sampling).
package syz

import (
	"fmt"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/xrand"
)

// STI is a sequential test input: a short sequence of syscalls.
type STI struct {
	ID    int64
	Calls []sim.Call
}

// String renders the STI as a compact program listing.
func (s *STI) String() string {
	out := fmt.Sprintf("sti%d{", s.ID)
	for i, c := range s.Calls {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("sys%d%v", c.Syscall, c.Args)
	}
	return out + "}"
}

// Clone returns a deep copy of the STI.
func (s *STI) Clone() *STI {
	c := &STI{ID: s.ID, Calls: make([]sim.Call, len(s.Calls))}
	for i, call := range s.Calls {
		c.Calls[i] = sim.Call{Syscall: call.Syscall, Args: append([]int64(nil), call.Args...)}
	}
	return c
}

// Generator produces and mutates STIs for one kernel.
type Generator struct {
	K      *kernel.Kernel
	rng    *xrand.RNG
	nextID int64

	// MaxCalls bounds the syscalls per STI (default 3).
	MaxCalls int
	// ArgRange bounds argument values (default 8, matching the small
	// constants the kernel generator uses for branch triggers).
	ArgRange int64
}

// NewGenerator creates a deterministic STI generator.
func NewGenerator(k *kernel.Kernel, seed uint64) *Generator {
	return &Generator{K: k, rng: xrand.New(seed), MaxCalls: 4, ArgRange: 8}
}

// Generate returns a fresh random STI.
func (g *Generator) Generate() *STI {
	n := g.rng.IntRange(1, g.MaxCalls)
	sti := &STI{ID: g.nextID}
	g.nextID++
	for i := 0; i < n; i++ {
		sti.Calls = append(sti.Calls, g.randCall())
	}
	return sti
}

// GenerateFor returns an STI whose last call is the given syscall, with
// 0–2 random preceding calls; used by directed workflows (e.g. Razzer)
// that need a specific syscall exercised.
func (g *Generator) GenerateFor(syscall int32) *STI {
	n := g.rng.IntRange(0, g.MaxCalls-1)
	sti := &STI{ID: g.nextID}
	g.nextID++
	for i := 0; i < n; i++ {
		sti.Calls = append(sti.Calls, g.randCall())
	}
	sti.Calls = append(sti.Calls, g.callOf(syscall))
	return sti
}

// Mutate returns a mutated copy of sti: one of argument tweak, call
// insertion, call deletion, or call replacement.
func (g *Generator) Mutate(sti *STI) *STI {
	m := sti.Clone()
	m.ID = g.nextID
	g.nextID++
	switch g.rng.Intn(4) {
	case 0: // tweak one argument
		c := &m.Calls[g.rng.Intn(len(m.Calls))]
		if len(c.Args) > 0 {
			c.Args[g.rng.Intn(len(c.Args))] = int64(g.rng.Intn(int(g.ArgRange)))
		}
	case 1: // insert a call
		if len(m.Calls) < g.MaxCalls {
			pos := g.rng.Intn(len(m.Calls) + 1)
			m.Calls = append(m.Calls, sim.Call{})
			copy(m.Calls[pos+1:], m.Calls[pos:])
			m.Calls[pos] = g.randCall()
		} else {
			m.Calls[g.rng.Intn(len(m.Calls))] = g.randCall()
		}
	case 2: // delete a call
		if len(m.Calls) > 1 {
			pos := g.rng.Intn(len(m.Calls))
			m.Calls = append(m.Calls[:pos], m.Calls[pos+1:]...)
		} else {
			m.Calls[0] = g.randCall()
		}
	case 3: // replace a call
		m.Calls[g.rng.Intn(len(m.Calls))] = g.randCall()
	}
	return m
}

func (g *Generator) randCall() sim.Call {
	return g.callOf(int32(g.rng.Intn(len(g.K.Syscalls))))
}

func (g *Generator) callOf(syscall int32) sim.Call {
	sc := g.K.Syscalls[syscall]
	call := sim.Call{Syscall: syscall}
	for a := 0; a < sc.NumArgs; a++ {
		call.Args = append(call.Args, int64(g.rng.Intn(int(g.ArgRange))))
	}
	return call
}

// Access is one memory access in a sequential or concurrent trace.
type Access struct {
	Ref     sim.InstrRef
	Write   bool
	Addr    int32
	Value   int64
	Lockset uint64
	Step    int // dynamic position within the owning thread's execution
}

// Profile captures everything observed during a single-threaded STI run.
type Profile struct {
	STI        *STI
	Covered    []bool         // sequential block coverage (SCB set)
	BlockTrace []int32        // block-entry order
	Accesses   []Access       // ordered memory accesses
	InstrTrace []sim.InstrRef // every executed instruction, in order
	Steps      int
}

// CoveredCount returns the number of blocks covered.
func (p *Profile) CoveredCount() int {
	n := 0
	for _, c := range p.Covered {
		if c {
			n++
		}
	}
	return n
}

// ControlEdges returns the dynamic control-flow edges taken during the run
// (deduplicated): the SCB control-flow edges of the CT graph.
func (p *Profile) ControlEdges() [][2]int32 {
	seen := make(map[[2]int32]bool)
	var out [][2]int32
	for i := 1; i < len(p.BlockTrace); i++ {
		e := [2]int32{p.BlockTrace[i-1], p.BlockTrace[i]}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Run executes sti single-threaded on a fresh machine and returns its
// profile. Execution is deterministic.
func Run(k *kernel.Kernel, sti *STI) (*Profile, error) {
	m := sim.NewMachine(k)
	th := sim.NewThread(m, 0, sti.Calls)
	p := &Profile{STI: sti, Covered: make([]bool, k.NumBlocks())}
	var ev sim.Event
	for th.State() == sim.Runnable {
		if err := th.Step(&ev); err != nil {
			return nil, fmt.Errorf("syz: profiling %s: %w", sti, err)
		}
		p.InstrTrace = append(p.InstrTrace, ev.Ref)
		if ev.EnteredBlock {
			p.Covered[ev.Block] = true
			p.BlockTrace = append(p.BlockTrace, ev.Block)
		}
		if ev.Read || ev.Write {
			p.Accesses = append(p.Accesses, Access{
				Ref: ev.Ref, Write: ev.Write, Addr: ev.Addr,
				Value: ev.Value, Lockset: ev.Lockset, Step: th.Steps - 1,
			})
		}
	}
	if th.State() != sim.Done {
		return nil, fmt.Errorf("syz: %s ended in state %v", sti, th.State())
	}
	p.Steps = th.Steps
	return p, nil
}
