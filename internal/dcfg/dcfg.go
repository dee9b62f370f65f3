// Package dcfg builds Dynamic Control-Flow Graphs (paper Section III-D):
// control-flow graphs recovered from an actual execution in which every
// edge carries a trip count. Routine sub-graphs are analyzed with
// immediate dominators to find natural loops; loop headers residing in
// the program's main image become the candidate region markers used by
// the BBV profiler ((PC, count) pairs, Section III-C).
package dcfg

import (
	"fmt"
	"sort"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// EdgeKind classifies a dynamic edge.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeBranch EdgeKind = iota // intra-routine control transfer
	EdgeCall                   // call site block -> callee entry
	EdgeReturn                 // callee exit block -> caller block
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeBranch:
		return "branch"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	}
	return "edge(?)"
}

// Edge is a dynamic control-flow edge with a trip count.
type Edge struct {
	From, To int // global block indices
	Kind     EdgeKind
	Count    uint64
}

// Node is a basic block observed during execution.
type Node struct {
	Block *isa.Block
	Execs uint64 // times the block was entered (all threads)
	// ThreadExecs is the per-thread entry count (index = thread ID).
	ThreadExecs []uint64
	Out         []*Edge
	In          []*Edge
}

// Symmetric reports whether every one of nthreads threads entered the
// block the same non-zero number of times — the signature of a worker
// loop all threads execute in lockstep episodes (e.g. a timestep header
// entered once per thread per step). Symmetric headers fire in N-hit
// bursts under natural scheduling, so only episode-leader hit counts
// (count ≡ 1 mod N) make stable (PC, count) region boundaries.
func (n *Node) Symmetric(nthreads int) bool {
	if len(n.ThreadExecs) < nthreads || nthreads < 2 {
		return false
	}
	first := n.ThreadExecs[0]
	if first == 0 {
		return false
	}
	for _, c := range n.ThreadExecs[:nthreads] {
		if c != first {
			return false
		}
	}
	return true
}

// Graph is the dynamic control-flow graph of one execution.
type Graph struct {
	Prog  *isa.Program
	Nodes map[int]*Node // keyed by global block index
	edges map[[2]int]*Edge
}

// Builder constructs a Graph while a program runs (typically during
// constrained pinball replay, so the graph is reproducible). It is an
// exec.BlockObserver, so replays drive it with coalesced block events;
// its per-instruction OnInstr applies the same rules one instruction at
// a time and is the oracle the block tier is tested against.
type Builder struct {
	g   *Graph
	cur []*isa.Block   // last block per thread, nil right after a call
	stk [][]*isa.Block // per-thread caller-block stacks
}

// NewBuilder creates a DCFG builder for a machine with nthreads threads.
func NewBuilder(p *isa.Program, nthreads int) *Builder {
	return &Builder{
		g:   &Graph{Prog: p, Nodes: make(map[int]*Node), edges: make(map[[2]int]*Edge)},
		cur: make([]*isa.Block, nthreads),
		stk: make([][]*isa.Block, nthreads),
	}
}

// OnInstr implements exec.Observer: one instruction, at most one entry.
func (b *Builder) OnInstr(ev *exec.Event) {
	if ev.BlockEntry {
		b.enter(ev.Tid, ev.Block, 1)
	}
	b.transfer(ev.Tid, ev.Instr)
}

// OnBlock implements exec.BlockObserver. A coalesced event holds Entries
// entries of one block and ends with its only possible call or return.
func (b *Builder) OnBlock(ev *exec.BlockEvent) {
	if ev.Entries > 0 {
		b.enter(ev.Tid, ev.Block, ev.Entries)
	}
	b.transfer(ev.Tid, ev.LastInstr())
}

// enter records n back-to-back entries of blk by thread tid. The first
// takes its branch edge from the thread's previous block (same routine
// only); each later one re-enters blk from itself.
func (b *Builder) enter(tid int, blk *isa.Block, n uint64) {
	node := b.g.node(blk)
	node.Execs += n
	for len(node.ThreadExecs) <= tid {
		node.ThreadExecs = append(node.ThreadExecs, 0)
	}
	node.ThreadExecs[tid] += n
	if prev := b.cur[tid]; prev != nil && prev.Routine == blk.Routine {
		b.g.addEdge(prev, blk, EdgeBranch, 1)
	}
	if n > 1 {
		b.g.addEdge(blk, blk, EdgeBranch, n-1)
	}
	b.cur[tid] = blk
}

// transfer applies a call or return retired by thread tid.
func (b *Builder) transfer(tid int, in *isa.Instr) {
	switch in.Op {
	case isa.OpCall:
		caller := b.cur[tid]
		b.g.addEdge(caller, in.Callee.Blocks[0], EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], caller)
		b.cur[tid] = nil // callee entry must not become an intra-routine edge
	case isa.OpRet:
		n := len(b.stk[tid])
		if n == 0 {
			return
		}
		caller := b.stk[tid][n-1]
		b.stk[tid] = b.stk[tid][:n-1]
		if b.cur[tid] != nil {
			b.g.addEdge(b.cur[tid], caller, EdgeReturn, 1)
		}
		// Execution resumes mid-block in the caller; the next
		// intra-routine edge hangs off the call-site block.
		b.cur[tid] = caller
	}
}

// Graph returns the constructed graph.
func (b *Builder) Graph() *Graph { return b.g }

func (g *Graph) node(blk *isa.Block) *Node {
	n, ok := g.Nodes[blk.Global]
	if !ok {
		n = &Node{Block: blk}
		g.Nodes[blk.Global] = n
	}
	return n
}

// addEdge records count traversals of the (from, to) edge. The
// first record to create an edge fixes its Kind and its position in the
// endpoint nodes' Out/In order.
func (g *Graph) addEdge(from, to *isa.Block, kind EdgeKind, count uint64) {
	key := [2]int{from.Global, to.Global}
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{From: from.Global, To: to.Global, Kind: kind}
		g.edges[key] = e
		g.node(from).Out = append(g.node(from).Out, e)
		g.node(to).In = append(g.node(to).In, e)
	}
	e.Count += count
}

// Edges returns all edges sorted by (From, To) for stable iteration.
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// NumNodes returns the number of executed basic blocks.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

func (g *Graph) String() string {
	return fmt.Sprintf("dcfg{%d nodes, %d edges}", len(g.Nodes), len(g.edges))
}
