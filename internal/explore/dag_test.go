package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// dagOpt returns opt switched onto the DAG substrate.
func dagOpt(opt Options) Options {
	opt.Substrate = SubstrateDAG
	return opt
}

// TestDAGDeadlineCountMatchesTree pins the substrate equivalence on the
// paper's running example: identical path counts, strictly no more
// generated statuses.
func TestDAGDeadlineCountMatchesTree(t *testing.T) {
	cat := fig3Catalog(t)
	opt := Options{MaxPerTerm: 3}
	tree, err := DeadlineCount(cat, emptyStart(cat, f11), s13, opt)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := DeadlineCount(cat, emptyStart(cat, f11), s13, dagOpt(opt))
	if err != nil {
		t.Fatal(err)
	}
	if dag.Paths != tree.Paths || dag.GoalPaths != tree.GoalPaths {
		t.Fatalf("dag %d/%d != tree %d/%d", dag.Paths, dag.GoalPaths, tree.Paths, tree.GoalPaths)
	}
	if !dag.DAG || tree.DAG {
		t.Fatalf("DAG flags: dag=%v tree=%v", dag.DAG, tree.DAG)
	}
	if dag.Nodes > tree.Nodes {
		t.Fatalf("dag generated %d distinct statuses > tree's %d visits", dag.Nodes, tree.Nodes)
	}
}

// TestDAGGoalCountBrandeis checks the goal-driven DP (pruners active and
// inactive) against the tree walk on the real evaluation catalog.
func TestDAGGoalCountBrandeis(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, f11.Add(4)) // Fall 2013
	end := f11.Add(8)                    // Fall 2015
	opt := Options{MaxPerTerm: 3}
	for _, pruned := range []bool{true, false} {
		var pruners []Pruner
		if pruned {
			pruners = PaperPruners(cat, goal, opt.MaxPerTerm)
		}
		tree, err := GoalCount(cat, start, end, goal, pruners, opt)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := GoalCount(cat, start, end, goal, pruners, dagOpt(opt))
		if err != nil {
			t.Fatal(err)
		}
		if dag.Paths != tree.Paths || dag.GoalPaths != tree.GoalPaths {
			t.Errorf("pruned=%v: dag %d/%d != tree %d/%d",
				pruned, dag.Paths, dag.GoalPaths, tree.Paths, tree.GoalPaths)
		}
	}
}

// TestTreeDAGEquivalenceRandom is the substrate-equivalence property
// suite: on randomized catalogs and queries, the DAG engine's deadline
// counts and goal counts (under both paper pruners, and with a parallel
// construction pool) are bit-identical to the serial tree walk's.
func TestTreeDAGEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)

		treeD, err := DeadlineCount(rc.cat, rc.startStatus(), rc.end, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		treeG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		treeN, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt)
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 4} {
			opt := dagOpt(rc.opt)
			opt.Workers = workers
			dagD, err := DeadlineCount(rc.cat, rc.startStatus(), rc.end, opt)
			if err != nil {
				t.Fatal(err)
			}
			if dagD.Paths != treeD.Paths || dagD.GoalPaths != treeD.GoalPaths {
				t.Fatalf("seed %d workers=%d: deadline dag %d/%d != tree %d/%d",
					seed, workers, dagD.Paths, dagD.GoalPaths, treeD.Paths, treeD.GoalPaths)
			}
			dagG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, opt)
			if err != nil {
				t.Fatal(err)
			}
			if dagG.Paths != treeG.Paths || dagG.GoalPaths != treeG.GoalPaths {
				t.Fatalf("seed %d workers=%d: goal dag %d/%d != tree %d/%d",
					seed, workers, dagG.Paths, dagG.GoalPaths, treeG.Paths, treeG.GoalPaths)
			}
			dagN, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			if dagN.Paths != treeN.Paths || dagN.GoalPaths != treeN.GoalPaths {
				t.Fatalf("seed %d workers=%d: unpruned dag %d/%d != tree %d/%d",
					seed, workers, dagN.Paths, dagN.GoalPaths, treeN.Paths, treeN.GoalPaths)
			}
			if workers > 1 && !dagG.Parallel && dagG.Nodes > 1 {
				t.Errorf("seed %d: parallel DAG build did not report Parallel", seed)
			}
		}

		// DAG structural tallies (distinct statuses, distinct transitions,
		// per-strategy prune split) are deterministic: the parallel
		// construction must reproduce the serial builder's exactly.
		serialDAG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, dagOpt(rc.opt))
		if err != nil {
			t.Fatal(err)
		}
		popt := dagOpt(rc.opt)
		popt.Workers = 4
		parDAG, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, popt)
		if err != nil {
			t.Fatal(err)
		}
		if serialDAG.Nodes != parDAG.Nodes || serialDAG.Edges != parDAG.Edges ||
			serialDAG.PrunedTime != parDAG.PrunedTime || serialDAG.PrunedAvail != parDAG.PrunedAvail {
			t.Fatalf("seed %d: parallel DAG tallies %+v != serial %+v", seed, parDAG, serialDAG)
		}
	}
}

// TestTreeDAGWhatIfEquivalence: the shared-DAG what-if engine delivers
// exactly the per-candidate deltas the per-candidate tree counts do, on
// randomized catalogs from a status offering two or more options (so
// candidates' subtrees share statuses), under both pruners and a
// parallel build pool.
func TestTreeDAGWhatIfEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		st := rc.whatIfStatus(t)
		topt := rc.opt
		topt.Substrate = SubstrateTree
		tree, stopped, err := CompareSelectionsCtx(context.Background(),
			rc.cat, st, rc.end, rc.req, pruners, topt)
		if err != nil || stopped != "" {
			t.Fatalf("seed %d: tree what-if err=%v stopped=%q", seed, err, stopped)
		}
		if len(tree) < 2 {
			t.Fatalf("seed %d: %d candidates, want two or more", seed, len(tree))
		}
		for _, workers := range []int{1, 4} {
			dopt := dagOpt(rc.opt)
			dopt.Workers = workers
			dag, stopped, err := CompareSelectionsCtx(context.Background(),
				rc.cat, st, rc.end, rc.req, pruners, dopt)
			if err != nil || stopped != "" {
				t.Fatalf("seed %d: dag what-if err=%v stopped=%q", seed, err, stopped)
			}
			if len(dag) != len(tree) {
				t.Fatalf("seed %d workers=%d: %d candidates != tree's %d", seed, workers, len(dag), len(tree))
			}
			for i := range tree {
				a, b := tree[i], dag[i]
				if !a.Selection.Equal(b.Selection) || a.Paths != b.Paths ||
					a.GoalPaths != b.GoalPaths || a.NextOptions != b.NextOptions {
					t.Fatalf("seed %d workers=%d: impact %d differs: tree %+v dag %+v",
						seed, workers, i, a, b)
				}
			}
		}
	}
}

// whatIfCase is one what-if query of whatIfCases.
type whatIfCase struct {
	name  string
	cat   *catalog.Catalog
	start status.Status
	end   term.Term
	goal  degree.Goal
	opt   Options
}

func (c whatIfCase) pruners() []Pruner { return PaperPruners(c.cat, c.goal, c.opt.MaxPerTerm) }

// whatIfCases returns what-if queries with many candidates each: on a
// generated wide and a deep catalog, a random quarter of the lower half
// completed, a two-course goal, three semesters and m = 3; and the
// Brandeis major over four semesters.
func whatIfCases(t *testing.T) []whatIfCase {
	t.Helper()
	var cases []whatIfCase
	for _, p := range []datagen.Params{
		{Courses: 48, IntroFraction: 0.25, Layers: 3, OrProb: 0.3, Terms: 9, OfferProb: 0.35, Seed: 101},
		{Courses: 44, IntroFraction: 0.07, Layers: 7, OrProb: 0.2, Terms: 9, OfferProb: 0.5, Seed: 202},
	} {
		cat, err := datagen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(p.Seed))
		n := cat.Len()
		for i := 0; i < 5; i++ {
			x := bitset.New(n)
			for c := 0; c < n/2; c++ {
				if rng.Intn(4) == 0 {
					x.Add(c)
				}
			}
			g1, g2 := n/3+rng.Intn(n-n/3), n/3+rng.Intn(n-n/3)
			if g1 == g2 {
				g2 = n/3 + (g2-n/3+1)%(n-n/3)
			}
			start := cat.FirstTerm().Add(rng.Intn(3))
			cases = append(cases, whatIfCase{
				name: fmt.Sprintf("catalog %d query %d", p.Seed, i), cat: cat,
				start: status.New(cat, start, x), end: start.Add(3),
				goal: mustGoalSet(t, cat, cat.ID(g1), cat.ID(g2)), opt: Options{MaxPerTerm: 3},
			})
		}
	}
	cat := brandeis.Catalog()
	major, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, whatIfCase{
		name: "brandeis", cat: cat, start: emptyStart(cat, brandeis.StartForSemesters(4)),
		end: brandeis.EndTerm(), goal: major, opt: Options{MaxPerTerm: 3},
	})
}

// TestTreeDAGWhatIfEquivalenceManyCandidates: the shared counter scores
// candidates whose futures overlap, so one candidate's build reuses
// statuses another interned. Every per-candidate tally equals the tree
// walk's on whatIfCases.
func TestTreeDAGWhatIfEquivalenceManyCandidates(t *testing.T) {
	cases := whatIfCases(t)
	many := 0
	for _, c := range cases {
		topt := c.opt
		topt.Substrate = SubstrateTree
		tree, err := CompareSelections(c.cat, c.start, c.end, c.goal, c.pruners(), topt)
		if err != nil {
			t.Fatalf("%s: tree what-if: %v", c.name, err)
		}
		dag, err := CompareSelections(c.cat, c.start, c.end, c.goal, c.pruners(), dagOpt(c.opt))
		if err != nil {
			t.Fatalf("%s: dag what-if: %v", c.name, err)
		}
		if len(dag) != len(tree) {
			t.Fatalf("%s: %d candidates != tree's %d", c.name, len(dag), len(tree))
		}
		for i := range tree {
			a, b := tree[i], dag[i]
			if !a.Selection.Equal(b.Selection) || a.Paths != b.Paths ||
				a.GoalPaths != b.GoalPaths || a.NextOptions != b.NextOptions {
				t.Fatalf("%s: impact %d differs: tree %+v dag %+v", c.name, i, a, b)
			}
		}
		if len(tree) >= 5 {
			many++
		}
	}
	if many < len(cases)/2 {
		t.Errorf("only %d of %d cases offer five or more candidates", many, len(cases))
	}
}

// TestDAGStreamUnfold: a DAG-substrate stream lazily unfolds the merged
// DAG back into full paths, in exactly the serial tree walk's depth-first
// emission order.
func TestDAGStreamUnfold(t *testing.T) {
	cat := fig3Catalog(t)
	opt := Options{MaxPerTerm: 3}
	paths := func(opt Options) []string {
		var out []string
		sink := SinkFunc(func(ev Event) error {
			if ev.Kind != KindPath {
				return nil
			}
			parts := make([]string, len(ev.Steps))
			for i, s := range ev.Steps {
				parts[i] = "{" + strings.Join(cat.IDs(s.Selection), ",") + "}"
			}
			out = append(out, strings.Join(parts, "/"))
			return nil
		})
		res, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, opt, sink)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Paths) != len(out) {
			t.Fatalf("Result.Paths = %d, emitted %d", res.Paths, len(out))
		}
		return out
	}
	tree := paths(opt)
	dag := paths(dagOpt(opt))
	if len(tree) == 0 || len(tree) != len(dag) {
		t.Fatalf("tree emitted %d paths, dag %d", len(tree), len(dag))
	}
	for i := range tree {
		if tree[i] != dag[i] {
			t.Fatalf("path %d: tree %q != dag %q", i, tree[i], dag[i])
		}
	}
	// Early stop: the unfold honours ErrStopEmit and reports StopSink with
	// exactly the delivered prefix.
	var got int64
	res, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, dagOpt(opt),
		SinkFunc(func(ev Event) error {
			if ev.Kind != KindPath {
				return nil
			}
			if got++; got == 2 {
				return ErrStopEmit
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopSink || res.Paths != 2 {
		t.Fatalf("stopped=%q paths=%d, want sink/2", res.Stopped, res.Paths)
	}
}

// TestDAGBudgets: budget bounds and cancellation end a DAG run with the
// tree walk's partial-result contract (lower-bound tallies, reason named).
func TestDAGBudgets(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, f11.Add(4))
	end := f11.Add(8)
	opt := dagOpt(Options{MaxPerTerm: 3})
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)

	full, err := GoalCount(cat, start, end, goal, pruners, opt)
	if err != nil || full.Stopped != "" {
		t.Fatalf("unbudgeted run: err=%v stopped=%q", err, full.Stopped)
	}

	bopt := opt
	bopt.Budget = Budget{MaxNodes: 25}
	partial, err := GoalCount(cat, start, end, goal, pruners, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Stopped != StopMaxNodes || !partial.Truncated {
		t.Fatalf("stopped = %q (truncated=%v), want max-nodes", partial.Stopped, partial.Truncated)
	}
	if partial.Nodes > 25 {
		t.Fatalf("generated %d statuses under a 25-node budget", partial.Nodes)
	}
	if partial.Paths > full.Paths || partial.GoalPaths > full.GoalPaths {
		t.Fatalf("stopped tallies %d/%d exceed full %d/%d",
			partial.Paths, partial.GoalPaths, full.Paths, full.GoalPaths)
	}

	popt := opt
	popt.Budget = Budget{MaxPaths: 3}
	capped, err := DeadlineCount(cat, start, end, popt)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stopped != StopMaxPaths {
		t.Fatalf("path-budget stop = %q, want max-paths", capped.Stopped)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, err := GoalCountCtx(ctx, cat, start, end, goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Stopped != StopCanceled || canceled.Paths != 0 {
		t.Fatalf("pre-canceled run: stopped=%q paths=%d", canceled.Stopped, canceled.Paths)
	}
}

// TestDAGMaterializeRejected: the DAG substrate cannot materialise.
func TestDAGMaterializeRejected(t *testing.T) {
	cat := fig3Catalog(t)
	if _, err := Deadline(cat, emptyStart(cat, f11), s13, dagOpt(Options{})); !errors.Is(err, ErrSubstrateDAGMaterialize) {
		t.Fatalf("materialising DAG run: err = %v, want ErrSubstrateDAGMaterialize", err)
	}
	goal, err := degree.NewCourseSet(cat, "11A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Goal(cat, emptyStart(cat, f11), s13, goal, nil, dagOpt(Options{})); !errors.Is(err, ErrSubstrateDAGMaterialize) {
		t.Fatalf("materialising DAG goal run: err = %v", err)
	}
}

// TestSubstrateOption: validation and names.
func TestSubstrateOption(t *testing.T) {
	cat := fig3Catalog(t)
	if _, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{Substrate: Substrate(9)}); err == nil {
		t.Error("unknown substrate accepted")
	}
	for sub, want := range map[Substrate]string{
		SubstrateAuto: "auto", SubstrateTree: "tree", SubstrateDAG: "dag", Substrate(9): "Substrate(9)",
	} {
		if got := sub.String(); got != want {
			t.Errorf("Substrate(%d).String() = %q, want %q", sub, got, want)
		}
	}
	// SubstrateTree is explicitly the legacy walk.
	tree, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{Substrate: SubstrateTree})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := DeadlineCount(cat, emptyStart(cat, f11), s13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes != auto.Nodes || tree.Paths != auto.Paths || tree.DAG || auto.DAG {
		t.Fatalf("SubstrateTree %+v != SubstrateAuto %+v", tree, auto)
	}
}

// mustGoalSet is a tiny helper for goal construction in DAG tests.
func mustGoalSet(t *testing.T, cat *catalog.Catalog, ids ...string) degree.Goal {
	t.Helper()
	g, err := degree.NewCourseSet(cat, ids...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDAGWhatIfEndAdjacent: candidates landing on the end semester are
// scored inline on the DAG path too.
func TestDAGWhatIfEndAdjacent(t *testing.T) {
	cat := fig3Catalog(t)
	impacts, err := CompareSelections(cat, emptyStart(cat, f12), s13,
		mustGoalSet(t, cat, "11A"), nil, dagOpt(Options{MaxPerTerm: 1}))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, imp := range impacts {
		if imp.Selection.Equal(cat.MustSetOf("11A")) {
			found = true
			if imp.GoalPaths != 1 || imp.Paths != 1 {
				t.Errorf("end-adjacent impact = %+v", imp)
			}
		}
	}
	if !found {
		t.Error("11A candidate missing")
	}
}

// whatIfBudgetFits holds, per whatIfCases query, the smallest node and
// path budgets a DAG what-if completes under: one node per distinct
// status built, however many candidates reach it, and one path per
// terminal folded, plus one (a path budget stops on the charge that
// reaches it). They were recorded from the node-graph what-if build the
// shared counter replaced, so budgeted what-if stops exactly where it did.
var whatIfBudgetFits = map[string][2]int64{
	"catalog 101 query 0": {120, 590},
	"catalog 101 query 1": {125, 14946},
	"catalog 101 query 2": {413, 20489},
	"catalog 101 query 3": {63, 1},
	"catalog 101 query 4": {7, 1},
	"catalog 202 query 0": {105, 1},
	"catalog 202 query 1": {11, 1},
	"catalog 202 query 2": {274, 1},
	"catalog 202 query 3": {3, 1},
	"catalog 202 query 4": {47, 611},
	"brandeis":            {106, 1680},
}

// TestDAGWhatIfBudgets: a budget the scoring fits in changes nothing; one
// node or path less stops the run, which then names the bound and
// delivers no candidate. A cancelled run stops before scoring anything.
func TestDAGWhatIfBudgets(t *testing.T) {
	ctx := context.Background()
	for _, wc := range whatIfCases(t) {
		run := func(b Budget) ([]SelectionImpact, string) {
			opt := wc.opt
			opt.Budget = b
			out, stopped, err := CompareSelectionsCtx(ctx, wc.cat, wc.start, wc.end, wc.goal, wc.pruners(), opt)
			if err != nil {
				t.Fatalf("%s budget %+v: %v", wc.name, b, err)
			}
			return out, stopped
		}
		full, stopped := run(Budget{})
		if stopped != "" {
			t.Fatalf("%s: unbudgeted what-if stopped: %q", wc.name, stopped)
		}
		fits, ok := whatIfBudgetFits[wc.name]
		if !ok {
			t.Fatalf("%s: no recorded budgets", wc.name)
		}
		if got := whatIfStatuses(t, wc); got != fits[0] {
			t.Errorf("%s: the counter builds %d statuses, want %d", wc.name, got, fits[0])
		}
		for _, c := range []struct {
			reason string
			budget Budget
			less   Budget
		}{
			{StopMaxNodes, Budget{MaxNodes: fits[0]}, Budget{MaxNodes: fits[0] - 1}},
			{StopMaxPaths, Budget{MaxPaths: fits[1]}, Budget{MaxPaths: fits[1] - 1}},
		} {
			if got, s := run(c.budget); s != "" || len(got) != len(full) {
				t.Errorf("%s: budget %+v: stopped=%q, %d candidates, want the full %d", wc.name, c.budget, s, len(got), len(full))
			} else {
				for i := range got {
					if a, b := got[i], full[i]; !a.Selection.Equal(b.Selection) || a.Paths != b.Paths || a.GoalPaths != b.GoalPaths {
						t.Errorf("%s: budget %+v: impact %d = %+v, want %+v", wc.name, c.budget, i, a, b)
					}
				}
			}
			if c.less.MaxNodes == 0 && c.less.MaxPaths == 0 {
				continue // a zero budget is no budget
			}
			if got, s := run(c.less); s != c.reason || len(got) != 0 {
				t.Errorf("%s: budget %+v: stopped=%q with %d candidates, want %q and none", wc.name, c.less, s, len(got), c.reason)
			}
		}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if got, s, err := CompareSelectionsCtx(canceled, wc.cat, wc.start, wc.end, wc.goal, wc.pruners(), wc.opt); err != nil || s != StopCanceled || len(got) != 0 {
			t.Errorf("%s: canceled what-if: %d candidates, stopped=%q, err=%v", wc.name, len(got), s, err)
		}
	}
}

// whatIfStatuses is the number of distinct statuses a DAG what-if builds
// for wc: its counter scores every candidate that does not land on the
// deadline.
func whatIfStatuses(t *testing.T, wc whatIfCase) int64 {
	t.Helper()
	sc, err := NewSharedCounter(wc.cat, wc.end, 0, wc.goal, wc.pruners(), wc.opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	var children []status.Status
	e := newEngine(wc.cat, wc.end, wc.goal, wc.pruners(), wc.opt)
	_ = e.selections(wc.start, 0, func(w bitset.Set) error {
		if child := e.advance(wc.start, w); child.Term.Before(wc.end) {
			children = append(children, child)
		}
		return nil
	})
	for _, ch := range children {
		if _, err := sc.Counts(context.Background(), ch); err != nil {
			t.Fatal(err)
		}
	}
	return sc.Stats().Statuses
}
