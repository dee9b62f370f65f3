package dcfg

import (
	"fmt"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
)

// Checkpoint-parallel DCFG construction. A window of a replay cannot
// know the serial builder's interleaving state at its start — each
// thread's previous block and its stack of caller blocks — so a
// ShardBuilder records that state *symbolically*: an edge source may be
// "whatever thread t's current block was at the shard boundary"
// (symStartCur) or "the d-th-from-top entry of thread t's caller stack
// at the boundary" (symStartStack). Merging resolves the symbols against
// the carry handed forward from the previous shard, applies the edge
// records in first-occurrence order (which is what fixes Node.Out/In
// order and each edge's Kind exactly as the serial builder would), and
// emits the carry for the next shard. The result is byte-identical to a
// serial Builder over the whole run — pinned by the shard identity
// tests across shard widths.

type symKind uint8

const (
	// symNil: definitely no previous block (right after a call).
	symNil symKind = iota
	// symKnown: a block observed inside this shard.
	symKnown
	// symStartCur: the serial builder's cur[tid] at the shard boundary.
	symStartCur
	// symStartStack: the depth-th entry from the top of the serial
	// builder's caller stack at the shard boundary (depth 1 = top).
	symStartStack
)

// sym is a possibly-symbolic reference to a basic block. It is
// comparable, so (from, to) pairs key the shard's edge records.
type sym struct {
	kind  symKind
	blk   *isa.Block // symKnown
	tid   int        // symStartCur, symStartStack
	depth int        // symStartStack
}

func known(b *isa.Block) sym { return sym{kind: symKnown, blk: b} }

// shardEdge is one (from, to) edge record: the kind of its first
// occurrence in the shard and the number of occurrences.
type shardEdge struct {
	from, to sym
	kind     EdgeKind
	count    uint64
}

type shardNode struct {
	blk         *isa.Block
	execs       uint64
	threadExecs []uint64
}

// ShardBuilder builds the mergeable DCFG state of one replay window.
// It applies Builder's rules exactly, on both observer tiers, except
// that edge sources reaching back across the window start stay symbolic
// and per-(from, to) counts are kept locally instead of in a shared
// graph.
type ShardBuilder struct {
	nodes  map[int]*shardNode
	edgeIx map[[2]sym]int
	edges  []*shardEdge
	cur    []sym
	stk    [][]sym
	// pops counts how deep this shard popped into the carry stack:
	// underflow pops consume depths 1, 2, 3, … sequentially.
	pops []int
}

// NewShardBuilder creates a shard builder for an nthreads-thread window.
func NewShardBuilder(nthreads int) *ShardBuilder {
	b := &ShardBuilder{
		nodes:  make(map[int]*shardNode),
		edgeIx: make(map[[2]sym]int),
		cur:    make([]sym, nthreads),
		stk:    make([][]sym, nthreads),
		pops:   make([]int, nthreads),
	}
	for tid := range b.cur {
		b.cur[tid] = sym{kind: symStartCur, tid: tid}
	}
	return b
}

// OnInstr implements exec.Observer (the per-instruction oracle tier).
func (b *ShardBuilder) OnInstr(ev *exec.Event) {
	if ev.BlockEntry {
		b.enter(ev.Tid, ev.Block, 1)
	}
	b.transfer(ev.Tid, ev.Instr)
}

// OnBlock implements exec.BlockObserver. An event that resumed mid-block
// at the window start still takes its first entry's edge from the
// symbolic start block, which merge resolves like any other.
func (b *ShardBuilder) OnBlock(ev *exec.BlockEvent) {
	if ev.Entries > 0 {
		b.enter(ev.Tid, ev.Block, ev.Entries)
	}
	b.transfer(ev.Tid, ev.LastInstr())
}

// enter is Builder.enter with symbolic sources: the branch-edge
// same-routine check is applied inline for known sources and deferred
// to merge for symbolic ones.
func (b *ShardBuilder) enter(tid int, blk *isa.Block, n uint64) {
	node, ok := b.nodes[blk.Global]
	if !ok {
		node = &shardNode{blk: blk}
		b.nodes[blk.Global] = node
	}
	node.execs += n
	for len(node.threadExecs) <= tid {
		node.threadExecs = append(node.threadExecs, 0)
	}
	node.threadExecs[tid] += n
	self := known(blk)
	switch prev := b.cur[tid]; prev.kind {
	case symKnown:
		if prev.blk.Routine == blk.Routine {
			b.addEdge(prev, self, EdgeBranch, 1)
		}
	case symStartCur, symStartStack:
		b.addEdge(prev, self, EdgeBranch, 1)
	}
	if n > 1 {
		b.addEdge(self, self, EdgeBranch, n-1)
	}
	b.cur[tid] = self
}

// transfer is Builder.transfer with symbolic sources: a return that
// underflows the shard's own stack pops into the carry stack.
func (b *ShardBuilder) transfer(tid int, in *isa.Instr) {
	switch in.Op {
	case isa.OpCall:
		caller := b.cur[tid]
		b.addEdge(caller, known(in.Callee.Blocks[0]), EdgeCall, 1)
		b.stk[tid] = append(b.stk[tid], caller)
		b.cur[tid] = sym{}
	case isa.OpRet:
		var caller sym
		if n := len(b.stk[tid]); n > 0 {
			caller = b.stk[tid][n-1]
			b.stk[tid] = b.stk[tid][:n-1]
		} else {
			b.pops[tid]++
			caller = sym{kind: symStartStack, tid: tid, depth: b.pops[tid]}
		}
		if b.cur[tid].kind != symNil {
			b.addEdge(b.cur[tid], caller, EdgeReturn, 1)
		}
		b.cur[tid] = caller
	}
}

func (b *ShardBuilder) addEdge(from, to sym, kind EdgeKind, count uint64) {
	key := [2]sym{from, to}
	if i, ok := b.edgeIx[key]; ok {
		b.edges[i].count += count
		return
	}
	b.edgeIx[key] = len(b.edges)
	b.edges = append(b.edges, &shardEdge{from: from, to: to, kind: kind, count: count})
}

// Carry is the serial builder's per-thread interleaving state at a
// shard boundary: the previous block and the caller-block stack of
// every thread. StartCarry (all nil, empty stacks) is the state at
// step 0; MergeInto returns the carry at the shard's end.
type Carry struct {
	cur []*isa.Block
	stk [][]*isa.Block
}

// StartCarry is the carry at the beginning of the run.
func StartCarry(nthreads int) Carry {
	return Carry{cur: make([]*isa.Block, nthreads), stk: make([][]*isa.Block, nthreads)}
}

func (c *Carry) resolve(s sym) (*isa.Block, error) {
	switch s.kind {
	case symNil:
		return nil, nil
	case symKnown:
		return s.blk, nil
	case symStartCur:
		return c.cur[s.tid], nil
	case symStartStack:
		st := c.stk[s.tid]
		if s.depth > len(st) {
			return nil, fmt.Errorf("dcfg: shard pops %d deep into a %d-deep carry stack (thread %d)",
				s.depth, len(st), s.tid)
		}
		return st[len(st)-s.depth], nil
	}
	return nil, fmt.Errorf("dcfg: unknown sym kind %d", s.kind)
}

// MergeInto applies the shard's node counts and edge records to g,
// resolving symbolic sources against the carry at the shard's start,
// and returns the carry at the shard's end. Records whose resolution
// shows the serial builder would not have recorded an edge (nil
// previous block, cross-routine branch) are skipped with exactly the
// serial rules; a resolution the serial builder could never produce
// (unresolved call site, over-deep return) is an error — the window
// diverged from the recording.
func (b *ShardBuilder) MergeInto(g *Graph, carry Carry) (Carry, error) {
	for _, sn := range b.nodes {
		n := g.node(sn.blk)
		n.Execs += sn.execs
		for len(n.ThreadExecs) < len(sn.threadExecs) {
			n.ThreadExecs = append(n.ThreadExecs, 0)
		}
		for tid, c := range sn.threadExecs {
			n.ThreadExecs[tid] += c
		}
	}
	for _, e := range b.edges {
		from, err := carry.resolve(e.from)
		if err != nil {
			return Carry{}, err
		}
		to, err := carry.resolve(e.to)
		if err != nil {
			return Carry{}, err
		}
		switch e.kind {
		case EdgeBranch:
			// The serial builder records a branch edge only from a non-nil
			// previous block in the same routine.
			if from == nil || to == nil || from.Routine != to.Routine {
				continue
			}
		case EdgeCall:
			if from == nil {
				return Carry{}, fmt.Errorf("dcfg: call edge with unresolved call site")
			}
		case EdgeReturn:
			if from == nil {
				continue // serial: cur == nil right after a call
			}
			if to == nil {
				return Carry{}, fmt.Errorf("dcfg: return edge with unresolved caller block")
			}
		}
		g.addEdge(from, to, e.kind, e.count)
	}

	next := StartCarry(len(b.cur))
	for tid := range b.cur {
		cblk, err := carry.resolve(b.cur[tid])
		if err != nil {
			return Carry{}, err
		}
		next.cur[tid] = cblk
		base := carry.stk[tid]
		if b.pops[tid] > len(base) {
			return Carry{}, fmt.Errorf("dcfg: shard pops %d frames off a %d-deep carry stack (thread %d)",
				b.pops[tid], len(base), tid)
		}
		ns := append([]*isa.Block(nil), base[:len(base)-b.pops[tid]]...)
		for _, s := range b.stk[tid] {
			blk, err := carry.resolve(s)
			if err != nil {
				return Carry{}, err
			}
			ns = append(ns, blk)
		}
		next.stk[tid] = ns
	}
	return next, nil
}

// MergeShards chains per-window shard builders in schedule order into
// one whole-run graph, threading the carry across boundaries. The
// result deep-equals the graph a serial Builder produces over the same
// replay.
func MergeShards(p *isa.Program, shards []*ShardBuilder) (*Graph, error) {
	g := &Graph{Prog: p, Nodes: make(map[int]*Node), edges: make(map[[2]int]*Edge)}
	if len(shards) == 0 {
		return g, nil
	}
	carry := StartCarry(len(shards[0].cur))
	for k, sb := range shards {
		next, err := sb.MergeInto(g, carry)
		if err != nil {
			return nil, fmt.Errorf("dcfg: merging shard %d: %w", k, err)
		}
		carry = next
	}
	return g, nil
}
