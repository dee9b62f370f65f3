package dcfg

import (
	"fmt"
	"sort"

	"looppoint/internal/isa"
)

// Serializable snapshots of partial DCFG construction, for durable
// mid-analysis progress files. A Graph halfway through a shard merge and
// the Carry at the last merged boundary are together enough to resume
// merging where a crashed run stopped; restoring them into a fresh
// process must reproduce the exact in-memory structures, including the
// Node.Out/In insertion order the serial builder would have produced —
// downstream passes (loop finding, marker ranking) iterate those slices,
// so order is part of the byte-identity contract.
//
// Blocks are referenced by their global index, which is stable across
// processes for the same program; restore validates every index against
// the program and returns an error (the caller classifies it as
// corruption) rather than ever panicking on hostile input.

// NewGraph returns an empty graph ready for incremental shard merging
// (ShardBuilder.MergeInto) — the durable analysis loop builds its graph
// one epoch at a time instead of via MergeShards.
func NewGraph(p *isa.Program) *Graph {
	return &Graph{Prog: p, Nodes: make(map[int]*Node), edges: make(map[[2]int]*Edge)}
}

// EdgeState is one edge of a serialized graph.
type EdgeState struct {
	From, To int
	Kind     uint8
	Count    uint64
}

// NodeState is one node of a serialized graph. Out and In index into
// GraphState.Edges, preserving the insertion order of the live Node.
type NodeState struct {
	Global      int
	Execs       uint64
	ThreadExecs []uint64
	Out         []int
	In          []int
}

// GraphState is the serializable form of a Graph. Nodes are sorted by
// global block index; Edges are enumerated in per-node Out order, which
// covers every edge exactly once.
type GraphState struct {
	Nodes []NodeState
	Edges []EdgeState
}

// State captures the graph's serializable form. The state shares no
// structure with the live graph.
func (g *Graph) State() *GraphState {
	globals := make([]int, 0, len(g.Nodes))
	for gi := range g.Nodes {
		globals = append(globals, gi)
	}
	sort.Ints(globals)
	st := &GraphState{}
	ix := make(map[*Edge]int, len(g.edges))
	for _, gi := range globals {
		for _, e := range g.Nodes[gi].Out {
			ix[e] = len(st.Edges)
			st.Edges = append(st.Edges, EdgeState{From: e.From, To: e.To, Kind: uint8(e.Kind), Count: e.Count})
		}
	}
	for _, gi := range globals {
		n := g.Nodes[gi]
		ns := NodeState{
			Global:      gi,
			Execs:       n.Execs,
			ThreadExecs: append([]uint64(nil), n.ThreadExecs...),
		}
		for _, e := range n.Out {
			ns.Out = append(ns.Out, ix[e])
		}
		for _, e := range n.In {
			ns.In = append(ns.In, ix[e])
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// RestoreGraph rebuilds a live Graph from its serialized state,
// validating every block and edge reference against the program and the
// graph's own consistency: each edge joins two restored nodes and is
// listed exactly once in its source's Out and once in its target's In,
// as a Builder leaves it.
func RestoreGraph(p *isa.Program, st *GraphState) (*Graph, error) {
	blocks := p.Blocks()
	g := &Graph{Prog: p, Nodes: make(map[int]*Node, len(st.Nodes)), edges: make(map[[2]int]*Edge, len(st.Edges))}
	edges := make([]*Edge, len(st.Edges))
	for i, es := range st.Edges {
		if es.From < 0 || es.From >= len(blocks) || es.To < 0 || es.To >= len(blocks) {
			return nil, fmt.Errorf("dcfg: edge %d references block outside program (%d -> %d of %d)", i, es.From, es.To, len(blocks))
		}
		if EdgeKind(es.Kind) > EdgeReturn {
			return nil, fmt.Errorf("dcfg: edge %d has unknown kind %d", i, es.Kind)
		}
		key := [2]int{es.From, es.To}
		if _, dup := g.edges[key]; dup {
			return nil, fmt.Errorf("dcfg: duplicate edge %d -> %d in state", es.From, es.To)
		}
		e := &Edge{From: es.From, To: es.To, Kind: EdgeKind(es.Kind), Count: es.Count}
		edges[i] = e
		g.edges[key] = e
	}
	// listed counts each edge's appearances in Out (index 0) and In (1).
	listed := make([][2]int, len(edges))
	adjacency := func(gi int, ixs []int, dir int) ([]*Edge, error) {
		var out []*Edge
		for _, ei := range ixs {
			if ei < 0 || ei >= len(edges) {
				return nil, fmt.Errorf("dcfg: node %d edge index %d outside %d edges", gi, ei, len(edges))
			}
			e := edges[ei]
			if end := [2]int{e.From, e.To}[dir]; end != gi {
				return nil, fmt.Errorf("dcfg: node %d lists edge %d -> %d it does not end", gi, e.From, e.To)
			}
			if listed[ei][dir]++; listed[ei][dir] > 1 {
				return nil, fmt.Errorf("dcfg: node %d lists edge %d -> %d twice", gi, e.From, e.To)
			}
			out = append(out, e)
		}
		return out, nil
	}
	for _, ns := range st.Nodes {
		if ns.Global < 0 || ns.Global >= len(blocks) {
			return nil, fmt.Errorf("dcfg: node references block %d outside program of %d blocks", ns.Global, len(blocks))
		}
		if _, dup := g.Nodes[ns.Global]; dup {
			return nil, fmt.Errorf("dcfg: duplicate node %d in state", ns.Global)
		}
		n := &Node{
			Block:       blocks[ns.Global],
			Execs:       ns.Execs,
			ThreadExecs: append([]uint64(nil), ns.ThreadExecs...),
		}
		var err error
		if n.Out, err = adjacency(ns.Global, ns.Out, 0); err != nil {
			return nil, err
		}
		if n.In, err = adjacency(ns.Global, ns.In, 1); err != nil {
			return nil, err
		}
		g.Nodes[ns.Global] = n
	}
	for i, e := range edges {
		if g.Nodes[e.From] == nil || g.Nodes[e.To] == nil {
			return nil, fmt.Errorf("dcfg: edge %d -> %d has an endpoint with no node", e.From, e.To)
		}
		if listed[i] != [2]int{1, 1} {
			return nil, fmt.Errorf("dcfg: edge %d -> %d is missing from its endpoints' Out/In lists", e.From, e.To)
		}
	}
	return g, nil
}

// CarryState is the serializable form of a Carry: blocks by global
// index, -1 for nil (no previous block).
type CarryState struct {
	Cur []int
	Stk [][]int
}

// State captures the carry's serializable form.
func (c Carry) State() CarryState {
	st := CarryState{Cur: make([]int, len(c.cur)), Stk: make([][]int, len(c.stk))}
	for i, b := range c.cur {
		st.Cur[i] = blockIndex(b)
	}
	for i, frames := range c.stk {
		if frames == nil {
			continue
		}
		s := make([]int, len(frames))
		for j, b := range frames {
			s[j] = blockIndex(b)
		}
		st.Stk[i] = s
	}
	return st
}

func blockIndex(b *isa.Block) int {
	if b == nil {
		return -1
	}
	return b.Global
}

// RestoreCarry rebuilds a Carry from its serialized state, validating
// block indices against the program.
func RestoreCarry(p *isa.Program, st CarryState) (Carry, error) {
	if len(st.Cur) != len(st.Stk) {
		return Carry{}, fmt.Errorf("dcfg: carry has %d cur entries but %d stacks", len(st.Cur), len(st.Stk))
	}
	blocks := p.Blocks()
	resolve := func(gi int) (*isa.Block, error) {
		if gi == -1 {
			return nil, nil
		}
		if gi < 0 || gi >= len(blocks) {
			return nil, fmt.Errorf("dcfg: carry references block %d outside program of %d blocks", gi, len(blocks))
		}
		return blocks[gi], nil
	}
	c := StartCarry(len(st.Cur))
	for i, gi := range st.Cur {
		b, err := resolve(gi)
		if err != nil {
			return Carry{}, err
		}
		c.cur[i] = b
	}
	for i, frames := range st.Stk {
		if frames == nil {
			continue
		}
		s := make([]*isa.Block, len(frames))
		for j, gi := range frames {
			b, err := resolve(gi)
			if err != nil {
				return Carry{}, err
			}
			s[j] = b
		}
		c.stk[i] = s
	}
	return c, nil
}
