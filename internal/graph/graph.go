// Package graph implements the learning graph of paper §2: a directed
// graph whose nodes are enrollment statuses and whose edges are semester
// transitions labelled with the selected course set W.
//
// Algorithm 1 materialises a tree (each course selection creates a fresh
// node; see Figure 3, where equivalent statuses n8/n9 stay distinct).
// The optional status-interning ablation merges nodes with identical
// (term, completed) pairs, producing a DAG; Graph supports both shapes:
// path enumeration walks parent pointers for trees and does a DFS for
// DAGs, and CountPaths uses dynamic programming that is exact for either.
package graph

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/status"
)

// NodeID identifies a node within one Graph.
type NodeID int32

// EdgeID identifies an edge within one Graph.
type EdgeID int32

// None marks an absent node or edge reference.
const None = -1

// Node is one enrollment status plus adjacency.
type Node struct {
	// Status is the enrollment status the node represents.
	Status status.Status
	// Out lists outgoing edges in creation order.
	Out []EdgeID
	// In lists incoming edges; empty for the root, length >1 only when
	// status interning merged nodes.
	In []EdgeID
	// Goal marks nodes whose status satisfies the exploration goal.
	Goal bool
	// Pruned marks nodes cut by a pruning strategy; pruned leaves are not
	// path endpoints (the paths through them were never generated).
	Pruned bool
}

// Edge is a semester transition labelled with the selected courses W.
type Edge struct {
	From, To NodeID
	// Selection is the course set W elected in the source node's semester.
	Selection bitset.Set
	// Cost is the edge cost assigned by a ranking function; zero unless
	// the ranked algorithm produced the graph.
	Cost float64
}

// Graph is a learning graph rooted at the student's starting status.
//
// Nodes and edges live in chunks that double from 16 to 4,096 entries:
// appending never moves an entry, so Node and Edge pointers stay valid for
// the graph's life, and a small graph allocates no more than a slice
// would. Out and In lists are carved from two per-graph arenas (see
// adjArena), so a tree costs no per-node adjacency allocation.
type Graph struct {
	nodes   chunks[Node]
	edges   chunks[Edge]
	out, in adjArena
	root    NodeID
}

// New returns a graph containing only the root status.
func New(root status.Status) *Graph {
	g := &Graph{root: 0}
	g.nodes.add(Node{Status: root})
	return g
}

// Root returns the root node's ID.
func (g *Graph) Root() NodeID { return g.root }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges.n }

// Node returns the node with the given ID. Nodes never move, so the
// pointer stays valid across AddNode and AddEdge.
func (g *Graph) Node(id NodeID) *Node { return g.nodes.at(int(id)) }

// Edge returns the edge with the given ID. Edges never move, so the
// pointer stays valid across AddEdge.
func (g *Graph) Edge(id EdgeID) *Edge { return g.edges.at(int(id)) }

// AddNode appends a node for the given status and returns its ID.
func (g *Graph) AddNode(st status.Status) NodeID {
	return NodeID(g.nodes.add(Node{Status: st}))
}

// AddEdge appends an edge from → to labelled with selection and links
// adjacency on both endpoints.
func (g *Graph) AddEdge(from, to NodeID, selection bitset.Set, cost float64) EdgeID {
	id := EdgeID(g.edges.add(Edge{From: from, To: to, Selection: selection, Cost: cost}))
	f := g.Node(from)
	f.Out = g.out.push(f.Out, id)
	t := g.Node(to)
	t.In = g.in.push(t.In, id)
	return id
}

// MarkGoal flags a node as satisfying the exploration goal.
func (g *Graph) MarkGoal(id NodeID) { g.Node(id).Goal = true }

// MarkPruned flags a node as cut by a pruning strategy.
func (g *Graph) MarkPruned(id NodeID) { g.Node(id).Pruned = true }

// Leaves returns the IDs of nodes with no outgoing edges, in ID order.
func (g *Graph) Leaves() []NodeID {
	var out []NodeID
	for i := 0; i < g.nodes.n; i++ {
		if len(g.nodes.at(i).Out) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// GoalNodes returns the IDs of nodes marked as goals, in ID order.
func (g *Graph) GoalNodes() []NodeID {
	var out []NodeID
	for i := 0; i < g.nodes.n; i++ {
		if g.nodes.at(i).Goal {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Chunk geometry: chunk k holds 16·2^k entries up to 4,096, then 4,096
// each. The doubling chunks together hold doublingSpan entries.
const (
	chunkMinShift = 4
	chunkMaxShift = 12
	doublingSpan  = 1<<(chunkMaxShift+1) - 1<<chunkMinShift
	doublingCount = chunkMaxShift - chunkMinShift + 1
)

// locate maps an entry index to its chunk and offset in O(1).
func locate(i int) (chunk, off int) {
	if i < doublingSpan {
		k := bits.Len(uint(i>>chunkMinShift+1)) - 1
		return k, i - (1<<(k+chunkMinShift) - 1<<chunkMinShift)
	}
	j := i - doublingSpan
	return doublingCount + j>>chunkMaxShift, j & (1<<chunkMaxShift - 1)
}

// chunks is append-only storage whose entries never move.
type chunks[T any] struct {
	list [][]T
	n    int
}

func (c *chunks[T]) at(i int) *T {
	if uint(i) >= uint(c.n) {
		panic("graph: node or edge ID out of range")
	}
	k, off := locate(i)
	return &c.list[k][off]
}

// add appends v and returns its index.
func (c *chunks[T]) add(v T) int {
	k, off := locate(c.n)
	if k == len(c.list) {
		c.list = append(c.list, make([]T, 1<<(min(k, doublingCount-1)+chunkMinShift)))
	}
	c.list[k][off] = v
	c.n++
	return c.n - 1
}

// Adjacency arena chunks double from adjChunkMin to adjChunkMax entries.
const (
	adjChunkMin = 16
	adjChunkMax = 4096
)

// adjArena carves short []EdgeID lists out of shared chunks. A list that
// ends at the arena's newest entry grows in place, so a tree node's
// consecutive children extend its Out list without allocating, and a
// child's single In entry costs a slot in a chunk, not an allocation.
// Lists are handed out with capacity equal to length, so a caller's
// append can never write into a neighbour's entries; a list that is no
// longer the newest (a merged-DAG node gaining a second parent) grows as
// an ordinary slice instead.
type adjArena struct {
	buf []EdgeID // current chunk; len is the carved prefix
}

// push returns list with id appended.
func (a *adjArena) push(list []EdgeID, id EdgeID) []EdgeID {
	n := len(list)
	if n > 0 && (len(a.buf) == 0 || &list[n-1] != &a.buf[len(a.buf)-1]) {
		return append(list, id)
	}
	if len(a.buf) == cap(a.buf) {
		// A fresh chunk; the list (empty, or the newest run) moves along.
		size := max(min(2*cap(a.buf), adjChunkMax), adjChunkMin, 2*(n+1))
		a.buf = append(make([]EdgeID, 0, size), list...)
	}
	a.buf = append(a.buf, id)
	end := len(a.buf)
	return a.buf[end-n-1 : end : end]
}

// Path is a root-to-node walk: Nodes[0] is the root and
// Edges[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Len returns the number of edges (semesters) on the path.
func (p Path) Len() int { return len(p.Edges) }

// Cost sums the edge costs along the path.
func (p Path) Cost(g *Graph) float64 {
	var c float64
	for _, e := range p.Edges {
		c += g.Edge(e).Cost
	}
	return c
}

// PathTo returns a root-to-id path. In a tree it is unique; in a merged
// DAG the lexicographically first (by incoming-edge ID) is returned.
func (g *Graph) PathTo(id NodeID) Path {
	var revNodes []NodeID
	var revEdges []EdgeID
	cur := id
	for {
		revNodes = append(revNodes, cur)
		n := g.Node(cur)
		if len(n.In) == 0 {
			break
		}
		e := n.In[0]
		revEdges = append(revEdges, e)
		cur = g.Edge(e).From
	}
	// Reverse.
	p := Path{
		Nodes: make([]NodeID, len(revNodes)),
		Edges: make([]EdgeID, len(revEdges)),
	}
	for i, n := range revNodes {
		p.Nodes[len(revNodes)-1-i] = n
	}
	for i, e := range revEdges {
		p.Edges[len(revEdges)-1-i] = e
	}
	return p
}

// ForEachPath enumerates every maximal path (root to leaf) by DFS, calling
// fn for each. The Path passed to fn is reused; copy to retain. If goalOnly
// is set, only paths ending at goal-marked nodes are reported (they may end
// at internal nodes if exploration stopped there). Enumeration stops early
// when fn returns false.
func (g *Graph) ForEachPath(goalOnly bool, fn func(Path) bool) {
	var nodes []NodeID
	var edges []EdgeID
	var dfs func(id NodeID) bool
	dfs = func(id NodeID) bool {
		nodes = append(nodes, id)
		defer func() { nodes = nodes[:len(nodes)-1] }()
		n := g.Node(id)
		terminal := len(n.Out) == 0 && !n.Pruned
		report := terminal
		if goalOnly {
			report = n.Goal
		}
		if report {
			if !fn(Path{Nodes: nodes, Edges: edges}) {
				return false
			}
		}
		for _, e := range n.Out {
			edges = append(edges, e)
			ok := dfs(g.Edge(e).To)
			edges = edges[:len(edges)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(g.root)
}

// Paths collects every maximal (or goal-terminated) path. Use only when the
// graph is known to be small; Table-2-scale graphs must use CountPaths.
func (g *Graph) Paths(goalOnly bool) []Path {
	var out []Path
	g.ForEachPath(goalOnly, func(p Path) bool {
		cp := Path{
			Nodes: append([]NodeID(nil), p.Nodes...),
			Edges: append([]EdgeID(nil), p.Edges...),
		}
		out = append(out, cp)
		return true
	})
	return out
}

// CountPaths returns the number of maximal root→leaf paths (goalOnly: the
// number of root→goal-node paths) without enumerating them, via memoised
// DFS over the DAG. Saturates at math.MaxInt64.
func (g *Graph) CountPaths(goalOnly bool) int64 {
	memo := make([]int64, g.nodes.n)
	for i := range memo {
		memo[i] = -1
	}
	var count func(id NodeID) int64
	count = func(id NodeID) int64 {
		if memo[id] >= 0 {
			return memo[id]
		}
		n := g.Node(id)
		var total int64
		if goalOnly {
			if n.Goal {
				total = 1
			}
		} else if len(n.Out) == 0 && !n.Pruned {
			total = 1
		}
		for _, e := range n.Out {
			c := count(g.Edge(e).To)
			if total > math.MaxInt64-c {
				total = math.MaxInt64
			} else {
				total += c
			}
		}
		memo[id] = total
		return total
	}
	return count(g.root)
}

// Depth returns the maximum number of edges on any root-to-leaf path.
func (g *Graph) Depth() int {
	memo := make([]int, g.nodes.n)
	for i := range memo {
		memo[i] = -1
	}
	var depth func(id NodeID) int
	depth = func(id NodeID) int {
		if memo[id] >= 0 {
			return memo[id]
		}
		best := 0
		for _, e := range g.Node(id).Out {
			if d := depth(g.Edge(e).To) + 1; d > best {
				best = d
			}
		}
		memo[id] = best
		return best
	}
	return depth(g.root)
}

// Stats summarises a learning graph.
type Stats struct {
	Nodes, Edges int
	Leaves       int
	GoalNodes    int
	Paths        int64
	GoalPaths    int64
	Depth        int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Leaves:    len(g.Leaves()),
		GoalNodes: len(g.GoalNodes()),
		Paths:     g.CountPaths(false),
		GoalPaths: g.CountPaths(true),
		Depth:     g.Depth(),
	}
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d leaves=%d goals=%d paths=%d goalPaths=%d depth=%d",
		s.Nodes, s.Edges, s.Leaves, s.GoalNodes, s.Paths, s.GoalPaths, s.Depth)
}
