package explore

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/degree"
	"repro/internal/graph"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/term"
)

// randomCase is one randomised cross-module scenario: a generated
// catalog, a degree requirement over it, and an exploration window.
type randomCase struct {
	cat        *catalog.Catalog
	req        *degree.Requirement
	start, end term.Term
	opt        Options
}

func newRandomCase(t *testing.T, seed int64) randomCase {
	t.Helper()
	p := datagen.Default()
	p.Courses = 10 + int(seed%5)
	p.Terms = 7
	p.Layers = 3
	p.OfferProb = 0.65
	p.Seed = seed
	cat, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := datagen.GenerateRequirement(cat, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := cat.FirstTerm().Add(int(seed % 2))
	return randomCase{
		cat:   cat,
		req:   req,
		start: start,
		end:   start.Add(5),
		opt:   Options{MaxPerTerm: 2},
	}
}

func (rc randomCase) startStatus() status.Status {
	return status.New(rc.cat, rc.start, bitset.New(rc.cat.Len()))
}

// whatIfStatus returns a status offering at least two options, two
// semesters or more before rc's end, for the what-if oracles: startStatus
// offers 0 or 1 on these catalogs, so its what-if compares one candidate
// or none. Like memberPositions' statuses it need not be reachable. Each
// semester from rc.start is tried with nothing completed, then with every
// course whose prerequisites that satisfies, and so on layer by layer.
func (rc randomCase) whatIfStatus(t *testing.T) status.Status {
	t.Helper()
	for tm := rc.start; !tm.Add(2).After(rc.end); tm = tm.Next() {
		for x := bitset.New(rc.cat.Len()); ; {
			if st := status.New(rc.cat, tm, x); st.Options.Len() >= 2 {
				return st
			}
			next := x.Clone()
			for i := 0; i < rc.cat.Len(); i++ {
				if rc.cat.PrereqSatisfied(i, x) {
					next.Add(i)
				}
			}
			if next.Equal(x) {
				break
			}
			x = next
		}
	}
	t.Fatalf("no status two semesters before %v offers two options", rc.end)
	return status.Status{}
}

// TestRandomCatalogInvariants exercises the cross-algorithm invariants on
// 25 random catalogs: Lemma 1 (pruning preserves goal paths), counting ==
// materialising, and merge-ablation count equality.
func TestRandomCatalogInvariants(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)

		withPrune, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		noPrune, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Lemma 1: identical goal-path sets.
		a := signatures(rc.cat, withPrune.Graph, true)
		b := signatures(rc.cat, noPrune.Graph, true)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: pruning changed goal paths\nwith:    %v\nwithout: %v", seed, a, b)
		}
		if withPrune.Nodes > noPrune.Nodes {
			t.Errorf("seed %d: pruning generated more nodes", seed)
		}

		// Counting matches materialisation on all tallies.
		cnt, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cnt.Paths != withPrune.Paths || cnt.GoalPaths != withPrune.GoalPaths ||
			cnt.Nodes != withPrune.Nodes || cnt.Edges != withPrune.Edges {
			t.Fatalf("seed %d: count %+v != materialize %+v", seed, cnt, withPrune)
		}

		// Merge ablation: same path counts, never more nodes.
		mopt := rc.opt
		mopt.MergeStatuses = true
		merged, err := Deadline(rc.cat, rc.startStatus(), rc.end, mopt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plain, err := Deadline(rc.cat, rc.startStatus(), rc.end, rc.opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if merged.Paths != plain.Paths {
			t.Fatalf("seed %d: merged paths %d != plain %d", seed, merged.Paths, plain.Paths)
		}
		if merged.Graph.NumNodes() > plain.Graph.NumNodes() {
			t.Errorf("seed %d: merging grew the graph", seed)
		}
	}
}

// TestRandomCatalogTopKOptimality verifies Lemma 2 (with the A*
// refinement) on random catalogs for all three ranking functions: the
// top-k output equals the k cheapest goal paths of the exhaustive graph.
func TestRandomCatalogTopKOptimality(t *testing.T) {
	exercised := 0
	for seed := int64(1); seed <= 12; seed++ {
		rc := newRandomCase(t, seed)
		full, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if full.GoalPaths == 0 || full.GoalPaths > 3000 {
			continue // nothing to rank, or too large to cross-check
		}
		exercised++
		prob := func(ci int, tm term.Term) float64 {
			return 0.35 + float64((ci*7+tm.Ordinal())%13)/20
		}
		rankers := []rank.Ranker{
			rank.Time{},
			rank.Workload{W: rc.cat.Workloads()},
			rank.Reliability{Prob: prob},
		}
		for _, r := range rankers {
			// Exhaustive costs of every goal path.
			var costs []float64
			full.Graph.ForEachPath(true, func(p graph.Path) bool {
				var c float64
				for i, eid := range p.Edges {
					e := full.Graph.Edge(eid)
					c += r.EdgeCost(full.Graph.Node(p.Nodes[i]).Status, e.Selection)
				}
				costs = append(costs, c)
				return true
			})
			sort.Float64s(costs)
			for _, k := range []int{1, 3, len(costs)} {
				if k > len(costs) {
					k = len(costs)
				}
				res, err := Ranked(rc.cat, rc.startStatus(), rc.end, rc.req, r, k,
					PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm), rc.opt)
				if err != nil {
					t.Fatalf("seed %d %s k=%d: %v", seed, r.Name(), k, err)
				}
				if len(res.Paths) != k {
					t.Fatalf("seed %d %s: got %d paths, want %d", seed, r.Name(), len(res.Paths), k)
				}
				for i, rp := range res.Paths {
					if diff := rp.Cost - costs[i]; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("seed %d %s k=%d: rank %d cost %g != exhaustive %g",
							seed, r.Name(), k, i, rp.Cost, costs[i])
					}
				}
			}
		}
	}
	if exercised < 4 {
		t.Fatalf("only %d of 12 random cases had rankable goal paths; regenerate parameters", exercised)
	}
}
