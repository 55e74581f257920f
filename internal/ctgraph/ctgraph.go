// Package ctgraph builds the graph representation of a concurrent test.
//
// Following §3.1 of the paper, a concurrent test (CT) — two sequential test
// inputs plus scheduling hints — is represented as a graph whose vertices
// are kernel basic blocks and whose edges carry five types of information:
//
//	SCBFlow  — control-flow edges taken during the sequential executions
//	URBFlow  — static control-flow edges from covered blocks to 1-hop URBs
//	IntraDF  — intra-thread data flow observed sequentially
//	InterDF  — potential inter-thread data flow (write in one thread,
//	           read in the other, same address)
//	Hint     — the candidate schedule's yield points
//
// plus Shortcut edges, the densification of §5.1.1 that connects blocks k
// sequential control-flow steps apart. Vertices are typed SCB (sequentially
// covered) or URB (uncovered reachable) and carry the block's assembly
// tokens; the PIC model predicts a covered/uncovered label per vertex.
package ctgraph

import (
	"fmt"

	"snowcat/internal/cfg"
	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// VertexType distinguishes the two vertex populations.
type VertexType uint8

const (
	// SCB is a sequentially-covered block of either STI.
	SCB VertexType = iota
	// URB is an uncovered reachable block: statically reachable within
	// HopLimit control-flow hops from an SCB but not sequentially covered.
	URB
)

func (v VertexType) String() string {
	if v == SCB {
		return "SCB"
	}
	return "URB"
}

// NumVertexTypes is the size of the vertex-type embedding table.
const NumVertexTypes = 2

// EdgeType enumerates the edge populations of a CT graph.
type EdgeType uint8

const (
	SCBFlow EdgeType = iota
	URBFlow
	IntraDF
	InterDF
	Hint
	Shortcut
	// IRQEdge connects an interrupt injection point to the injected
	// handler's entry block (§6 extension; present only in schedules that
	// carry IRQ hints).
	IRQEdge
)

// NumEdgeTypes is the size of the edge-type embedding table.
const NumEdgeTypes = 7

func (e EdgeType) String() string {
	switch e {
	case SCBFlow:
		return "scb-flow"
	case URBFlow:
		return "urb-flow"
	case IntraDF:
		return "intra-df"
	case InterDF:
		return "inter-df"
	case Hint:
		return "hint"
	case Shortcut:
		return "shortcut"
	case IRQEdge:
		return "irq"
	}
	return "unknown"
}

// Vertex is one basic block of the CT graph.
type Vertex struct {
	Block int32 // kernel block ID
	Type  VertexType
}

// Edge is a typed directed edge between vertex indices.
type Edge struct {
	From, To int32
	Type     EdgeType
}

// Graph is the model-facing representation of one concurrent test.
type Graph struct {
	CTI      ski.CTI
	Sched    ski.Schedule
	Vertices []Vertex
	Edges    []Edge
	// HintFrac records, per scheduling hint, how far through its thread's
	// sequential instruction trace the hint's switch point lies (0..1, -1
	// when the instruction never executes sequentially). It summarises
	// *when* each yield happens, complementing the hint edges that say
	// *where*.
	HintFrac []float64

	vidx map[int32]int32 // block ID → vertex index
	base *Base           // skeleton this graph was derived from (nil after gob)
}

// DerivedFrom reports whether the graph was produced by b.WithSchedule —
// the validity check behind cross-schedule feature reuse (pic.BaseContext).
// Graphs restored from gob report false (the link is not serialised).
func (g *Graph) DerivedFrom(b *Base) bool { return b != nil && g.base == b }

// BaseOf returns the skeleton the graph was derived from, or nil for
// graphs built monolithically or restored from gob. Serving layers use the
// pointer as a cache key for per-CTI inference contexts; it identifies the
// Base exactly (DerivedFrom(g.BaseOf()) is true whenever BaseOf is
// non-nil).
func (g *Graph) BaseOf() *Base { return g.base }

// VertexOf returns the vertex index of a block, or -1.
func (g *Graph) VertexOf(block int32) int32 {
	if i, ok := g.vidx[block]; ok {
		return i
	}
	return -1
}

// NumSCB and NumURB count the vertex populations.
func (g *Graph) NumSCB() int {
	n := 0
	for _, v := range g.Vertices {
		if v.Type == SCB {
			n++
		}
	}
	return n
}

// NumURB counts URB vertices.
func (g *Graph) NumURB() int { return len(g.Vertices) - g.NumSCB() }

// EdgeCount returns the number of edges of the given type.
func (g *Graph) EdgeCount(t EdgeType) int {
	n := 0
	for _, e := range g.Edges {
		if e.Type == t {
			n++
		}
	}
	return n
}

// Stats summarises a graph in the shape of the paper's §5.1.1 description.
func (g *Graph) Stats() string {
	return fmt.Sprintf("graph{V=%d (SCB=%d URB=%d) E=%d (scb=%d urb=%d intra=%d inter=%d hint=%d shortcut=%d)}",
		len(g.Vertices), g.NumSCB(), g.NumURB(), len(g.Edges),
		g.EdgeCount(SCBFlow), g.EdgeCount(URBFlow), g.EdgeCount(IntraDF),
		g.EdgeCount(InterDF), g.EdgeCount(Hint), g.EdgeCount(Shortcut))
}

// Builder converts concurrent test candidates into CT graphs. It holds the
// per-kernel state (the static CFG) shared across all graphs of a testing
// campaign.
type Builder struct {
	K   *kernel.Kernel
	CFG *cfg.Graph

	// HopLimit is the URB identification depth; the paper uses 1 (§3.1)
	// and discusses multi-hop URBs as a possible extension (§6).
	HopLimit int
	// ShortcutHops inserts a shortcut edge between blocks this many
	// sequential control-flow steps apart; 0 disables densification.
	ShortcutHops int
	// Disabled suppresses edges of the given types — the ablation knob for
	// studying how much each information source contributes to the
	// predictor (exercised by BenchmarkAblationEdgeTypes).
	Disabled [NumEdgeTypes]bool
}

// WithoutEdges returns a copy of the builder with the given edge types
// suppressed.
func (b *Builder) WithoutEdges(types ...EdgeType) *Builder {
	nb := *b
	for _, t := range types {
		nb.Disabled[t] = true
	}
	return &nb
}

// NewBuilder creates a Builder with the paper's configuration.
func NewBuilder(k *kernel.Kernel, g *cfg.Graph) *Builder {
	return &Builder{K: k, CFG: g, HopLimit: 1, ShortcutHops: 4}
}

// Build constructs the CT graph for (cti, sched) from the two sequential
// profiles. The profiles must be profiles of cti.A and cti.B.
//
// Build is BuildBase + WithSchedule; campaigns that score many candidate
// schedules of one CTI should call BuildBase once and WithSchedule per
// schedule, amortising the schedule-independent work.
func (b *Builder) Build(cti ski.CTI, profA, profB *syz.Profile, sched ski.Schedule) *Graph {
	return b.BuildBase(cti, profA, profB).WithSchedule(sched)
}

// Base is the schedule-independent skeleton of a CTI's graphs: everything
// Build derives from the two sequential profiles alone. Every candidate
// schedule of the CTI shares the vertex set (modulo IRQ handler blocks),
// the URBFlow/SCBFlow/IntraDF/InterDF edges, and the Shortcut edges; only
// the Hint and IRQ populations vary. A Base is immutable once built, so
// any number of goroutines may call WithSchedule concurrently.
type Base struct {
	CTI ski.CTI

	b        *Builder
	vertices []Vertex // len == cap: appends by derived graphs reallocate
	preEdges []Edge   // URBFlow, SCBFlow, IntraDF, InterDF, in Build order
	shortcut []Edge   // Shortcut edges; appended after the schedule edges
	vidx     map[int32]int32
	seen     map[[3]int32]bool // dedup keys of preEdges and shortcut
	entry    [2]int32          // first trace block per thread, -1 if empty
	frac     [2]map[sim.InstrRef]float64
}

// NumVertices returns the schedule-independent vertex count. Every graph
// derived via WithSchedule has these vertices as its prefix (IRQ-carrying
// schedules may append handler blocks after them).
func (base *Base) NumVertices() int { return len(base.vertices) }

// Vertices exposes the shared vertex prefix. Callers must not mutate it.
func (base *Base) Vertices() []Vertex { return base.vertices }

// BuildBase computes the schedule-independent part of the CT graph for a
// CTI. The profiles must be profiles of cti.A and cti.B.
func (b *Builder) BuildBase(cti ski.CTI, profA, profB *syz.Profile) *Base {
	base := &Base{CTI: cti, b: b, vidx: make(map[int32]int32)}

	// SCB vertices: union of the two sequential coverages, ascending ID.
	covered := make([]bool, b.K.NumBlocks())
	for id := range covered {
		covered[id] = profA.Covered[id] || profB.Covered[id]
	}
	var vertices []Vertex
	for id := 0; id < len(covered); id++ {
		if covered[id] {
			base.vidx[int32(id)] = int32(len(vertices))
			vertices = append(vertices, Vertex{Block: int32(id), Type: SCB})
		}
	}

	// URB vertices and URB control-flow edges.
	urbs := b.CFG.FindURBs(covered, b.HopLimit)
	for _, u := range urbs.URBs {
		base.vidx[u] = int32(len(vertices))
		vertices = append(vertices, Vertex{Block: u, Type: URB})
	}
	base.vertices = vertices[:len(vertices):len(vertices)]
	base.seen = make(map[[3]int32]bool)
	target := &base.preEdges
	addEdge := func(from, to int32, t EdgeType) {
		if b.Disabled[t] {
			return
		}
		fi, ok1 := base.vidx[from]
		ti, ok2 := base.vidx[to]
		if !ok1 || !ok2 {
			return
		}
		key := [3]int32{fi, ti, int32(t)}
		if base.seen[key] {
			return
		}
		base.seen[key] = true
		*target = append(*target, Edge{From: fi, To: ti, Type: t})
	}
	for _, e := range urbs.Edges {
		addEdge(e.From, e.To, URBFlow)
	}

	// SCB control-flow edges from both sequential traces.
	for _, p := range []*syz.Profile{profA, profB} {
		for _, e := range p.ControlEdges() {
			addEdge(e[0], e[1], SCBFlow)
		}
	}

	// Intra-thread data flow: each sequential read links from the most
	// recent write to the same address within the same thread.
	for _, p := range []*syz.Profile{profA, profB} {
		lastWrite := make(map[int32]int32) // addr → writer block
		for _, a := range p.Accesses {
			if a.Write {
				lastWrite[a.Addr] = a.Ref.Block
			} else if w, ok := lastWrite[a.Addr]; ok {
				addEdge(w, a.Ref.Block, IntraDF)
			}
		}
	}

	// Inter-thread potential data flow: writes of one thread × reads of
	// the other at the same address (both directions), at block granularity.
	interDF(profA, profB, addEdge)
	interDF(profB, profA, addEdge)

	// Shortcut densification over the dynamic block traces. The dedup key
	// includes the edge type, so precomputing these under the shared seen
	// set cannot interact with the per-schedule Hint/IRQ edges; they are
	// emitted by WithSchedule after the schedule edges, exactly where the
	// monolithic construction placed them. Shortcut endpoints are trace
	// blocks (always SCB vertices), so later IRQ vertex additions cannot
	// change which shortcut edges exist.
	if b.ShortcutHops > 0 {
		target = &base.shortcut
		for _, p := range []*syz.Profile{profA, profB} {
			for i := 0; i+b.ShortcutHops < len(p.BlockTrace); i++ {
				addEdge(p.BlockTrace[i], p.BlockTrace[i+b.ShortcutHops], Shortcut)
			}
		}
	}

	// Per-thread entry blocks and first-occurrence trace fractions, the
	// inputs of the per-schedule hint loop.
	base.entry = [2]int32{-1, -1}
	if len(profA.BlockTrace) > 0 {
		base.entry[0] = profA.BlockTrace[0]
	}
	if len(profB.BlockTrace) > 0 {
		base.entry[1] = profB.BlockTrace[0]
	}
	for th, p := range [2]*syz.Profile{profA, profB} {
		m := make(map[sim.InstrRef]float64, len(p.InstrTrace))
		n := float64(len(p.InstrTrace))
		for pos, ref := range p.InstrTrace {
			if _, ok := m[ref]; !ok {
				m[ref] = float64(pos) / n
			}
		}
		base.frac[th] = m
	}
	return base
}

// WithSchedule completes the skeleton into the CT graph of one candidate
// schedule: the output is identical — vertex by vertex, edge by edge — to
// what the monolithic Build produced for the same inputs. Only the Hint
// edges, HintFrac entries, and IRQ vertices/edges are computed here; the
// Base is read, never written, so concurrent calls are safe.
func (base *Base) WithSchedule(sched ski.Schedule) *Graph {
	b := base.b
	g := &Graph{
		CTI: base.CTI, Sched: sched,
		Vertices: base.vertices,
		vidx:     base.vidx,
		base:     base,
	}
	g.Edges = make([]Edge, len(base.preEdges),
		len(base.preEdges)+len(sched.Hints)+len(sched.IRQs)+len(base.shortcut))
	copy(g.Edges, base.preEdges)

	var seen map[[3]int32]bool // overlay over base.seen, allocated on demand
	addEdge := func(from, to int32, t EdgeType) {
		if b.Disabled[t] {
			return
		}
		fi, ok1 := g.vidx[from]
		ti, ok2 := g.vidx[to]
		if !ok1 || !ok2 {
			return
		}
		key := [3]int32{fi, ti, int32(t)}
		if base.seen[key] || seen[key] {
			return
		}
		if seen == nil {
			seen = make(map[[3]int32]bool)
		}
		seen[key] = true
		g.Edges = append(g.Edges, Edge{From: fi, To: ti, Type: t})
	}

	// Scheduling-hint edges (§3.1): the first hint yields to the other
	// thread's entry block; each later hint yields back to the block of
	// the previous hint (the resumption point).
	for i, h := range sched.Hints {
		var target int32
		if i == 0 {
			target = base.entry[1-h.Thread]
		} else {
			target = sched.Hints[i-1].Ref.Block
		}
		if target >= 0 {
			addEdge(h.Ref.Block, target, Hint)
		}
		// The hint's position within its thread's sequential trace.
		frac, ok := base.frac[h.Thread][h.Ref]
		if !ok {
			frac = -1
		}
		g.HintFrac = append(g.HintFrac, frac)
	}

	// Interrupt injections (§6 extension): the handler's blocks join the
	// graph as URB vertices (they are never covered sequentially), wired
	// with their static control flow, plus an IRQEdge from the injection
	// point to the handler entry. Adding vertices needs a private index,
	// so the shared one is cloned first.
	if len(sched.IRQs) > 0 {
		vidx := make(map[int32]int32, len(base.vidx)+8)
		for k, v := range base.vidx {
			vidx[k] = v
		}
		g.vidx = vidx
		for _, q := range sched.IRQs {
			if q.IRQ < 0 || int(q.IRQ) >= len(b.K.IRQs) {
				continue
			}
			fn := b.K.Func(b.K.IRQs[q.IRQ].Fn)
			for _, bid := range fn.Blocks {
				if _, ok := g.vidx[bid]; !ok {
					g.vidx[bid] = int32(len(g.Vertices))
					g.Vertices = append(g.Vertices, Vertex{Block: bid, Type: URB})
				}
			}
			for _, bid := range fn.Blocks {
				for _, succ := range b.CFG.Succs[bid] {
					addEdge(bid, succ, URBFlow)
				}
			}
			addEdge(q.Ref.Block, fn.Blocks[0], IRQEdge)
		}
	}

	// Shortcut edges, precomputed by BuildBase (see the dedup argument
	// there), take their original place after the schedule edges.
	g.Edges = append(g.Edges, base.shortcut...)
	return g
}

// interDF adds InterDF edges from writer blocks of pw to reader blocks of
// pr for overlapping addresses.
func interDF(pw, pr *syz.Profile, addEdge func(from, to int32, t EdgeType)) {
	// Writer blocks per address in first-occurrence order, so the edge
	// list (and therefore floating-point aggregation in the GNN) is
	// deterministic across runs.
	writes := make(map[int32][]int32)
	seen := make(map[[2]int32]bool)
	for _, a := range pw.Accesses {
		if !a.Write {
			continue
		}
		key := [2]int32{a.Addr, a.Ref.Block}
		if !seen[key] {
			seen[key] = true
			writes[a.Addr] = append(writes[a.Addr], a.Ref.Block)
		}
	}
	for _, a := range pr.Accesses {
		if a.Write {
			continue
		}
		for _, w := range writes[a.Addr] {
			addEdge(w, a.Ref.Block, InterDF)
		}
	}
}

// Labels produces the training target for a graph from the observed
// concurrent execution: Labels[i] is true when vertex i's block was covered
// under the concurrent execution.
func Labels(g *Graph, res *ski.Result) []bool {
	y := make([]bool, len(g.Vertices))
	for i, v := range g.Vertices {
		y[i] = res.Covered[v.Block]
	}
	return y
}

// Rebind reconstructs the internal block→vertex index after gob decoding
// (gob only carries exported fields).
func (g *Graph) Rebind() {
	g.vidx = make(map[int32]int32, len(g.Vertices))
	for i, v := range g.Vertices {
		g.vidx[v.Block] = int32(i)
	}
}

// InterDFEdges returns the indices (into Edges) of the inter-thread
// data-flow edges, in edge order — the population the data-flow prediction
// task (§6) scores.
func (g *Graph) InterDFEdges() []int {
	var out []int
	for i, e := range g.Edges {
		if e.Type == InterDF {
			out = append(out, i)
		}
	}
	return out
}

// FlowLabels produces the training target for the §6 data-flow prediction
// task: for every InterDF edge (in InterDFEdges order), whether the
// concurrent execution realised the flow — some write in the source block
// and some read in the destination block touched the same address with the
// write happening first, within the temporal window (the same overlap
// notion the race detector uses).
func FlowLabels(g *Graph, res *ski.Result, window int) []bool {
	idx := g.InterDFEdges()
	out := make([]bool, len(idx))
	if len(idx) == 0 {
		return out
	}
	// Writes and reads per (block, addr), with their global steps.
	type key struct {
		block int32
		addr  int32
	}
	writes := make(map[key][]int)
	reads := make(map[key][]int)
	for th := 0; th < 2; th++ {
		for _, a := range res.Accesses[th] {
			k := key{block: a.Ref.Block, addr: a.Addr}
			if a.Write {
				writes[k] = append(writes[k], a.Step)
			} else {
				reads[k] = append(reads[k], a.Step)
			}
		}
	}
	// Address universe per block pair: any address written in src and read
	// in dst qualifies.
	addrsOf := func(m map[key][]int, block int32) map[int32][]int {
		out := make(map[int32][]int)
		for k, steps := range m {
			if k.block == block {
				out[k.addr] = steps
			}
		}
		return out
	}
	for i, ei := range idx {
		e := g.Edges[ei]
		src := g.Vertices[e.From].Block
		dst := g.Vertices[e.To].Block
		ws := addrsOf(writes, src)
		rs := addrsOf(reads, dst)
		for addr, wsteps := range ws {
			rsteps, ok := rs[addr]
			if !ok {
				continue
			}
			for _, w := range wsteps {
				for _, r := range rsteps {
					if r > w && (window <= 0 || r-w <= window) {
						out[i] = true
					}
				}
			}
			if out[i] {
				break
			}
		}
	}
	return out
}
