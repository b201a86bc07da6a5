package viz

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

// The reflective form of the front-end document: the oracle AppendJSON
// is held to, encoded by encoding/json exactly as the renderer it
// replaced did.
type oracleNode struct {
	ID        int      `json:"id"`
	Term      string   `json:"term"`
	Completed []string `json:"completed"`
	Options   []string `json:"options"`
	Goal      bool     `json:"goal,omitempty"`
	Pruned    bool     `json:"pruned,omitempty"`
}

type oracleEdge struct {
	From      int      `json:"from"`
	To        int      `json:"to"`
	Selection []string `json:"selection"`
	Cost      float64  `json:"cost,omitempty"`
}

type oracleGraph struct {
	Root  int          `json:"root"`
	Nodes []oracleNode `json:"nodes"`
	Edges []oracleEdge `json:"edges"`
}

// oracleJSON renders the document through encoding/json.
func oracleJSON(cat *catalog.Catalog, g *graph.Graph, maxNodes int) ([]byte, error) {
	n := g.NumNodes()
	if maxNodes > 0 && n > maxNodes {
		n = maxNodes
	}
	doc := oracleGraph{Root: int(g.Root()), Nodes: make([]oracleNode, 0, n)}
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		doc.Nodes = append(doc.Nodes, oracleNode{
			ID: i, Term: nd.Status.Term.Label(),
			Completed: cat.IDs(nd.Status.Completed), Options: cat.IDs(nd.Status.Options),
			Goal: nd.Goal, Pruned: nd.Pruned,
		})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if int(e.From) >= n || int(e.To) >= n {
			continue
		}
		doc.Edges = append(doc.Edges, oracleEdge{From: int(e.From), To: int(e.To), Selection: cat.IDs(e.Selection), Cost: e.Cost})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAgainstOracle renders g at several caps and compares the bytes
// (and the failure, for a refused cost) with encoding/json's.
func checkAgainstOracle(t *testing.T, cat *catalog.Catalog, g *graph.Graph) {
	t.Helper()
	for _, maxNodes := range []int{0, 1, 2, 3, g.NumNodes() - 1, g.NumNodes(), g.NumNodes() + 1} {
		want, wantErr := oracleJSON(cat, g, maxNodes)
		prefix := []byte("prefix")
		got, err := AppendJSON(prefix, cat, g, maxNodes)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("maxNodes %d: error %v, encoding/json %v", maxNodes, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() || string(got) != "prefix" {
				t.Fatalf("maxNodes %d: error %q with %q left, encoding/json %q", maxNodes, err, got, wantErr)
			}
			continue
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("maxNodes %d: rendered\n%s\nencoding/json\n%s", maxNodes, got[len(prefix):], want)
		}
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cat, g := fig3(t)
	checkAgainstOracle(t, cat, g)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cat, g := randomGraph(t, rng, oddIDs, nil)
		checkAgainstOracle(t, cat, g)
	}
}

// oddIDs seed the fuzzer and the random graphs with every escaping rule.
var oddIDs = []string{"COSI 11A", "A<1>", `B&"2"\`, "C\xe2\x80\xa8x", "D\xe2\x80\xa9", "E\x01\t\n\r\b\f", "F\xffz", "G\x7f", "\xc3\xa9t\xc3\xa9", "H\xed\xa0\x80"}

// randomGraph builds a catalog over IDs drawn from ids and a random
// learning graph on it: random statuses, goal and pruned flags, edges
// with random selections and costs drawn from costs (a spread of
// encodable values when nil).
func randomGraph(t testing.TB, rng *rand.Rand, ids []string, costs []float64) (*catalog.Catalog, *graph.Graph) {
	t.Helper()
	f := term.TwoSeason.MustTerm(2011, term.Fall)
	b := catalog.NewBuilder(term.TwoSeason)
	n := 1 + rng.Intn(8)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			id += string(rune('a' + i))
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		b.Add(catalog.Course{ID: id, Offered: []term.Term{f}})
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := func() bitset.Set {
		s := bitset.New(cat.Len())
		for i := 0; i < cat.Len(); i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		return s
	}
	st := func() status.Status {
		return status.Status{Term: f.Add(rng.Intn(30) - 5), Completed: set(), Options: set()}
	}
	g := graph.New(st())
	nodes := 1 + rng.Intn(12)
	for i := 1; i < nodes; i++ {
		g.AddNode(st())
	}
	for i := 0; i < nodes; i++ {
		if rng.Intn(3) == 0 {
			g.MarkGoal(graph.NodeID(i))
		}
		if rng.Intn(4) == 0 {
			g.MarkPruned(graph.NodeID(i))
		}
	}
	if costs == nil {
		costs = []float64{0, 0, 1, 2.5, -3, 1e-7, 1e21, 123456789, 0.1, math.Copysign(0, -1)}
	}
	for e := rng.Intn(2 * nodes); e > 0; e-- {
		g.AddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)), set(), costs[rng.Intn(len(costs))])
	}
	return cat, g
}

// FuzzAppendJSON holds the graph renderer to encoding/json on random
// graphs over arbitrary course-ID strings and edge costs, NaN and ±Inf
// included.
func FuzzAppendJSON(f *testing.F) {
	f.Add(int64(1), "COSI 11A", "A<&>", 1.5, 0.0)
	f.Add(int64(2), "\xe2\x80\xa8", "\xff", 1e-7, 1e21)
	f.Add(int64(3), "x\x00y", "\"\\", math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, id1, id2 string, c1, c2 float64) {
		if id1 == "" || id2 == "" {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		cat, g := randomGraph(t, rng, []string{id1, id2, id1 + id2, "q"}, []float64{0, c1, c2})
		checkAgainstOracle(t, cat, g)
	})
}
