package explore

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/graph"
	"repro/internal/status"
)

// TestPrunersIgnoreOptions holds every built-in pruner to the Pruner
// contract the DAG's counting core relies on when it classifies a status
// before deriving its option set: Check reads only st.Term and
// st.Completed, so clearing st.Options changes neither the verdict nor
// the minimum.
func TestPrunersIgnoreOptions(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, brandeis.StartForSemesters(4))
	end := brandeis.EndTerm()
	const m = brandeis.MaxPerTerm
	res, err := Deadline(cat, start, end.Prev(), Options{MaxPerTerm: m})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cat, end, goal, nil, Options{MaxPerTerm: m})
	pruners := map[string]Pruner{
		"time":                TimePruner{Goal: goal, MaxPerTerm: m},
		"availability":        AvailPruner{Cat: cat, Goal: goal},
		"prereq-aware":        AvailPruner{Cat: cat, Goal: goal, PrereqAware: true},
		"cached time":         e.wrapPruner(TimePruner{Goal: goal, MaxPerTerm: m}),
		"cached availability": e.wrapPruner(AvailPruner{Cat: cat, Goal: goal}),
		"cached prereq-aware": e.wrapPruner(&AvailPruner{Cat: cat, Goal: goal, PrereqAware: true}),
	}
	if _, ok := pruners["cached availability"].(*cachedAvailPruner); !ok {
		t.Fatalf("the engine wraps AvailPruner as %T, not the cached pruner", pruners["cached availability"])
	}
	for name, p := range pruners {
		var pruned, constrained int
		for id := 0; id < res.Graph.NumNodes(); id++ {
			st := res.Graph.Node(graph.NodeID(id)).Status
			bare := status.Status{Term: st.Term, Completed: st.Completed}
			full := status.Status{Term: st.Term, Completed: st.Completed, Options: bitset.FromMembers(cat.Len(), 0, 1, 2)}
			prune, mt := p.Check(st, end)
			for _, other := range []status.Status{bare, full} {
				if op, omt := p.Check(other, end); op != prune || omt != mt {
					t.Fatalf("%s at %v: options %v give (%v, %d), derived options give (%v, %d)",
						name, st, other.Options, op, omt, prune, mt)
				}
			}
			if prune {
				pruned++
			} else if mt > 0 {
				constrained++
			}
		}
		if pruned == 0 {
			t.Errorf("%s pruned none of %d statuses; the case proves nothing", name, res.Graph.NumNodes())
		}
		if name == "time" && constrained == 0 {
			t.Errorf("time imposed no minimum on %d statuses; the case proves nothing", res.Graph.NumNodes())
		}
	}
}
