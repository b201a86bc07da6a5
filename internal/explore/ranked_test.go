package explore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/brandeis"
	"repro/internal/graph"
	"repro/internal/rank"
)

// TestRankedFrontierGraph: without a sink, the ranked search's graph
// holds exactly the popped nodes — each a full status, reached by one
// edge from an expanded parent — while every tally and path equals the
// sink run's, whose graph holds every generated child.
func TestRankedFrontierGraph(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, brandeis.StartForSemesters(5))
	end := brandeis.EndTerm()
	for _, r := range []rank.Ranker{rank.Time{}, rank.Workload{W: cat.Workloads()}} {
		for _, k := range []int{1, 8} {
			opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
			pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
			lazy, err := RankedCtx(context.Background(), cat, start, end, goal, r, k, pruners, opt)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := RankedStream(context.Background(), cat, start, end, goal, r, k, pruners, opt, SinkFunc(func(Event) error { return nil }))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s k=%d", r.Name(), k)
			if lazy.Nodes != eager.Nodes || lazy.Edges != eager.Edges || lazy.Popped != eager.Popped || len(lazy.Paths) != len(eager.Paths) {
				t.Fatalf("%s: lazy n%d e%d popped%d paths%d, eager n%d e%d popped%d paths%d", name,
					lazy.Nodes, lazy.Edges, lazy.Popped, len(lazy.Paths), eager.Nodes, eager.Edges, eager.Popped, len(eager.Paths))
			}
			for i := range lazy.Paths {
				ls := stepSignature(cat, rankedSteps(lazy.Graph, lazy.Paths[i].Path))
				es := stepSignature(cat, rankedSteps(eager.Graph, eager.Paths[i].Path))
				if ls != es || lazy.Paths[i].Cost != eager.Paths[i].Cost || lazy.Paths[i].Path.Cost(lazy.Graph) != lazy.Paths[i].Cost {
					t.Fatalf("%s path %d: lazy %g %s, eager %g %s", name, i, lazy.Paths[i].Cost, ls, eager.Paths[i].Cost, es)
				}
			}
			if got := int64(eager.Graph.NumNodes()); got != eager.Nodes {
				t.Errorf("%s: sink run's graph holds %d nodes, want all %d generated", name, got, eager.Nodes)
			}
			g := lazy.Graph
			if int64(g.NumNodes()) != lazy.Popped || g.NumEdges() != g.NumNodes()-1 || lazy.Popped >= lazy.Nodes {
				t.Fatalf("%s: graph holds %d nodes and %d edges, want the %d popped of %d generated and the edges into them",
					name, g.NumNodes(), g.NumEdges(), lazy.Popped, lazy.Nodes)
			}
			for id := graph.NodeID(1); int(id) < g.NumNodes(); id++ {
				n := g.Node(id)
				if len(n.In) != 1 {
					t.Fatalf("%s: node %d has %d in-edges", name, id, len(n.In))
				}
				e := g.Edge(n.In[0])
				p := g.Node(e.From).Status
				if len(g.Node(e.From).Out) == 0 || !n.Status.Term.Equal(p.Term.Next()) ||
					!n.Status.Completed.Equal(p.Completed.Union(e.Selection)) ||
					!n.Status.Options.Equal(cat.Options(n.Status.Completed, n.Status.Term)) {
					t.Fatalf("%s: node %d is not its parent %d advanced by its edge", name, id, e.From)
				}
			}
		}
	}
}

// TestRankedNodeBudgetSameChild: MaxNodes stops the search at the same
// generated child, with the same error, with a sink and without one.
func TestRankedNodeBudgetSameChild(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, brandeis.StartForSemesters(5))
	end := brandeis.EndTerm()
	stopped := 0
	for _, maxNodes := range []int{1, 2, 7, 100, 1000, 5000, 1 << 20} {
		opt := Options{MaxPerTerm: brandeis.MaxPerTerm, MaxNodes: maxNodes}
		pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
		lazy, lerr := RankedCtx(context.Background(), cat, start, end, goal, rank.Time{}, 8, pruners, opt)
		eager, eerr := RankedStream(context.Background(), cat, start, end, goal, rank.Time{}, 8, pruners, opt, SinkFunc(func(Event) error { return nil }))
		if fmt.Sprint(lerr) != fmt.Sprint(eerr) || lazy.Nodes != eager.Nodes || lazy.Edges != eager.Edges || lazy.Popped != eager.Popped {
			t.Fatalf("MaxNodes=%d: lazy %v (n%d e%d popped%d), eager %v (n%d e%d popped%d)", maxNodes,
				lerr, lazy.Nodes, lazy.Edges, lazy.Popped, eerr, eager.Nodes, eager.Edges, eager.Popped)
		}
		if errors.Is(lerr, ErrGraphTooLarge) {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("no budget stopped the search; the case proves nothing")
	}
}

// TestRankedWideStatusNodeBudget: a status with 2^62 − 1 selections hits
// the server's node budget without sizing anything by its selection
// count.
func TestRankedWideStatusNodeBudget(t *testing.T) {
	cat := wideCatalog(t)
	goal := mustGoalSet(t, cat, "XX 100")
	const budget = 500_000
	_, err := Ranked(cat, emptyStart(cat, f11), s13, goal, rank.Time{}, 3, nil, Options{MaxNodes: budget})
	if !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("err = %v, want ErrGraphTooLarge", err)
	}
	if want := fmt.Sprintf("%v: %d nodes (budget %d)", ErrGraphTooLarge, budget+1, budget); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}
