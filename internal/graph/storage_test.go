package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// TestLocateCoversEveryIndexOnce: chunk k of the doubling run holds
// 16·2^k entries up to 4,096, then 4,096 each, with no index mapped twice
// or skipped across any boundary.
func TestLocateCoversEveryIndexOnce(t *testing.T) {
	prevChunk, prevOff := 0, -1
	for i := 0; i < doublingSpan+3*4096; i++ {
		k, off := locate(i)
		switch {
		case k == prevChunk && off == prevOff+1:
		case k == prevChunk+1 && off == 0:
			if size := prevOff + 1; size != 16<<min(prevChunk, 8) {
				t.Fatalf("chunk %d held %d entries, want %d", prevChunk, size, 16<<min(prevChunk, 8))
			}
		default:
			t.Fatalf("index %d maps to chunk %d offset %d after chunk %d offset %d", i, k, off, prevChunk, prevOff)
		}
		prevChunk, prevOff = k, off
	}
}

// TestChunkBoundaryIndexing: every node and edge reads back what was
// added, across the doubling boundaries and into the fixed-size chunks.
func TestChunkBoundaryIndexing(t *testing.T) {
	const n = doublingSpan + 2*4096 + 7
	g := New(st(0))
	for i := 1; i < n; i++ {
		id := g.AddNode(st(i % 7))
		if int(id) != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
		e := g.AddEdge(NodeID(i-1), id, bitset.Set{}, float64(i))
		if int(e) != i-1 {
			t.Fatalf("AddEdge returned %d, want %d", e, i-1)
		}
	}
	if g.NumNodes() != n || g.NumEdges() != n-1 {
		t.Fatalf("nodes=%d edges=%d, want %d/%d", g.NumNodes(), g.NumEdges(), n, n-1)
	}
	for i := 0; i < n; i++ {
		if got, want := g.Node(NodeID(i)).Status.Term, st(i%7).Term; got != want {
			t.Fatalf("node %d term %v, want %v", i, got, want)
		}
		if i > 0 {
			ed := g.Edge(EdgeID(i - 1))
			if ed.From != NodeID(i-1) || ed.To != NodeID(i) || ed.Cost != float64(i) {
				t.Fatalf("edge %d = %+v", i-1, *ed)
			}
		}
	}
	if d := g.Depth(); d != n-1 {
		t.Errorf("chain depth %d, want %d", d, n-1)
	}
	for _, bad := range []int{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Node(%d) did not panic", bad)
				}
			}()
			g.Node(NodeID(bad))
		}()
	}
}

// TestPointersStableAcrossAdds: Node and Edge pointers taken early still
// address the same entries after thousands of appends.
func TestPointersStableAcrossAdds(t *testing.T) {
	g := New(st(0))
	root := g.Node(g.Root())
	first := g.AddNode(st(1))
	firstEdge := g.AddEdge(g.Root(), first, bitset.FromMembers(4, 1), 2)
	pn, pe := g.Node(first), g.Edge(firstEdge)
	for i := 0; i < 10000; i++ {
		id := g.AddNode(st(2))
		g.AddEdge(first, id, bitset.Set{}, 1)
	}
	if root != g.Node(g.Root()) || pn != g.Node(first) || pe != g.Edge(firstEdge) {
		t.Fatal("a pointer moved")
	}
	root.Goal = true
	if !g.Node(g.Root()).Goal {
		t.Error("a write through an early pointer was lost")
	}
	if len(pn.Out) != 10000 || pe.Cost != 2 {
		t.Errorf("early pointers read out=%d cost=%v", len(pn.Out), pe.Cost)
	}
}

// TestAdjacencyListsAreIsolated: a caller appending to a returned Out or
// In list never writes into another node's list, and the graph keeps
// extending its own lists correctly afterwards.
func TestAdjacencyListsAreIsolated(t *testing.T) {
	g := New(st(0))
	a := g.AddNode(st(1))
	b := g.AddNode(st(1))
	g.AddEdge(g.Root(), a, bitset.Set{}, 0)
	g.AddEdge(g.Root(), b, bitset.Set{}, 0)
	c := g.AddNode(st(2))
	g.AddEdge(a, c, bitset.Set{}, 0)
	out := g.Node(g.Root()).Out
	_ = append(out, 99)
	if got := g.Node(a).Out; !reflect.DeepEqual(got, []EdgeID{2}) {
		t.Fatalf("a's Out = %v after a caller appended to root's", got)
	}
	d := g.AddNode(st(1))
	g.AddEdge(g.Root(), d, bitset.Set{}, 0) // root's list is no longer the newest
	g.AddEdge(b, c, bitset.Set{}, 0)        // c gains a second parent
	if got := g.Node(g.Root()).Out; !reflect.DeepEqual(got, []EdgeID{0, 1, 3}) {
		t.Errorf("root Out = %v", got)
	}
	if got := g.Node(c).In; !reflect.DeepEqual(got, []EdgeID{2, 4}) {
		t.Errorf("c In = %v", got)
	}
	if got := g.Node(a).Out; !reflect.DeepEqual(got, []EdgeID{2}) {
		t.Errorf("a Out = %v", got)
	}
}

// TestTreeAdjacencyAllocations: a tree whose nodes gain their children
// consecutively (how the ranked search and materialising walks build)
// costs a handful of chunk allocations, not two per node.
func TestTreeAdjacencyAllocations(t *testing.T) {
	root, child := st(0), st(1)
	allocs := testing.AllocsPerRun(5, func() {
		g := New(root)
		for p := 0; g.NumNodes() < 3000; p++ {
			for k := 0; k < 5; k++ {
				c := g.AddNode(child)
				g.AddEdge(NodeID(p), c, bitset.Set{}, 0)
			}
		}
	})
	if allocs > 60 {
		t.Errorf("a 3,000-node tree allocates %.0f times", allocs)
	}
}

// refGraph is a plain-slice reference learning graph: the same
// operations over ordinary per-node slices.
type refGraph struct {
	out, in      [][]int
	from, to     []int
	goal, pruned []bool
}

func (r *refGraph) addNode() int {
	r.out, r.in = append(r.out, nil), append(r.in, nil)
	r.goal, r.pruned = append(r.goal, false), append(r.pruned, false)
	return len(r.out) - 1
}

func (r *refGraph) addEdge(from, to int) {
	id := len(r.from)
	r.from, r.to = append(r.from, from), append(r.to, to)
	r.out[from] = append(r.out[from], id)
	r.in[to] = append(r.in[to], id)
}

func (r *refGraph) pathTo(id int) []int {
	nodes := []int{id}
	for len(r.in[id]) > 0 {
		id = r.from[r.in[id][0]]
		nodes = append([]int{id}, nodes...)
	}
	return nodes
}

func (r *refGraph) paths(goalOnly bool) []string {
	var out []string
	var dfs func(id int, prefix string)
	dfs = func(id int, prefix string) {
		prefix += fmt.Sprintf("/%d", id)
		report := len(r.out[id]) == 0 && !r.pruned[id]
		if goalOnly {
			report = r.goal[id]
		}
		if report {
			out = append(out, prefix)
		}
		for _, e := range r.out[id] {
			dfs(r.to[e], prefix)
		}
	}
	dfs(0, "")
	return out
}

func (r *refGraph) depth(id int) int {
	best := 0
	for _, e := range r.out[id] {
		best = max(best, r.depth(r.to[e])+1)
	}
	return best
}

func (r *refGraph) leaves() []NodeID {
	var out []NodeID
	for i := range r.out {
		if len(r.out[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// randomPair grows a Graph and its reference in lockstep. merged adds
// second parents (the MergeStatuses shape); otherwise the result is a
// tree whose nodes sometimes gain children consecutively and sometimes
// interleaved with other nodes' (the streaming collector's shape).
func randomPair(rng *rand.Rand, size int, merged bool) (*Graph, *refGraph) {
	g, r := New(st(0)), &refGraph{}
	r.addNode()
	level := []int{0}
	depthOf := []int{0}
	for g.NumNodes() < size {
		p := rng.Intn(g.NumNodes())
		if rng.Intn(2) == 0 {
			p = level[rng.Intn(len(level))]
		}
		kids := 1 + rng.Intn(4)
		for k := 0; k < kids; k++ {
			id := int(g.AddNode(st(depthOf[p] + 1)))
			r.addNode()
			depthOf = append(depthOf, depthOf[p]+1)
			g.AddEdge(NodeID(p), NodeID(id), bitset.FromMembers(8, k), float64(k))
			r.addEdge(p, id)
			level = append(level, id)
			if merged && rng.Intn(3) == 0 {
				// A second parent one level up, never an ancestor-cycle:
				// any earlier node at the parent's depth.
				for q := 0; q < id; q++ {
					if q != p && depthOf[q] == depthOf[p] {
						g.AddEdge(NodeID(q), NodeID(id), bitset.Set{}, 0)
						r.addEdge(q, id)
						break
					}
				}
			}
			if rng.Intn(5) == 0 {
				g.MarkGoal(NodeID(id))
				r.goal[id] = true
			} else if rng.Intn(7) == 0 {
				g.MarkPruned(NodeID(id))
				r.pruned[id] = true
			}
		}
		if len(level) > 32 {
			level = level[len(level)-8:]
		}
	}
	return g, r
}

// TestGraphMatchesReference: PathTo, ForEachPath, CountPaths, Leaves and
// Depth agree with the plain-slice reference on random trees and merged
// DAGs large enough to span several chunks.
func TestGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 24; trial++ {
		merged := trial%2 == 1
		size := 20 + rng.Intn(200)
		if trial%6 == 0 {
			size = 9000 // past the doubling chunks
		}
		g, r := randomPair(rng, size, merged)
		name := fmt.Sprintf("trial %d (merged=%v, %d nodes)", trial, merged, g.NumNodes())
		for id := 0; id < g.NumNodes(); id += 1 + g.NumNodes()/50 {
			want := r.pathTo(id)
			p := g.PathTo(NodeID(id))
			got := make([]int, len(p.Nodes))
			for i, n := range p.Nodes {
				got[i] = int(n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PathTo(%d) = %v, want %v", name, id, got, want)
			}
		}
		if got, want := g.Leaves(), r.leaves(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Leaves differ", name)
		}
		if got, want := g.Depth(), r.depth(0); got != want {
			t.Fatalf("%s: Depth = %d, want %d", name, got, want)
		}
		if size > 1000 {
			continue // path enumeration is exponential in merged depth
		}
		for _, goalOnly := range []bool{false, true} {
			want := r.paths(goalOnly)
			var got []string
			g.ForEachPath(goalOnly, func(p Path) bool {
				s := ""
				for _, n := range p.Nodes {
					s += fmt.Sprintf("/%d", n)
				}
				got = append(got, s)
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s goalOnly=%v: ForEachPath gave %d paths, reference %d", name, goalOnly, len(got), len(want))
			}
			if c := g.CountPaths(goalOnly); c != int64(len(want)) {
				t.Fatalf("%s goalOnly=%v: CountPaths = %d, want %d", name, goalOnly, c, len(want))
			}
		}
	}
}
