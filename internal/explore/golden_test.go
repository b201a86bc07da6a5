package explore

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/degree"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/term"
)

// notGoal is a goal with negation, which the expression language lacks:
// complete every course in need and none in avoid. It keeps the Goal
// contract (both predicates read only x ∩ need ∪ avoid), so the DAG's
// folds must answer for it exactly as enumeration does.
type notGoal struct{ need, avoid bitset.Set }

func (g notGoal) Satisfied(x bitset.Set) bool {
	return g.need.SubsetOf(x) && !g.avoid.Intersects(x)
}

func (g notGoal) Remaining(x bitset.Set) int {
	if g.avoid.Intersects(x) {
		return -1
	}
	return g.need.DiffLen(x)
}

func (g notGoal) Relevant() bitset.Set { return g.need.Union(g.avoid) }
func (g notGoal) String() string       { return "not-goal" }

// goldenGoal is one goal shape of the golden and fold suites.
type goldenGoal struct {
	name    string
	goal    degree.Goal // nil: a deadline-driven run
	pruners bool        // run with the paper's pruners
}

// goldenGoals builds the goal shapes over a generated catalog: none,
// disjoint and (memoised) overlapping requirements, a course set, an
// and/or expression and a goal with negation.
func goldenGoals(t testing.TB, cat *catalog.Catalog, req *degree.Requirement) []goldenGoal {
	t.Helper()
	n := cat.Len()
	id := cat.ID
	overlap, err := degree.NewRequirement(cat,
		degree.GroupSpec{Name: "low", Count: 2, Courses: []string{id(0), id(1), id(n / 2), id(n/2 + 1)}},
		degree.GroupSpec{Name: "high", Count: 2, Courses: []string{id(n / 2), id(n/2 + 1), id(n - 1), id(n - 2)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	set, err := degree.NewCourseSet(cat, id(n-1), id(n-2))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := degree.NewExpr(cat, fmt.Sprintf("(%s and %s) or (%s and %s)", id(n-1), id(n-3), id(n-2), id(n/2)))
	if err != nil {
		t.Fatal(err)
	}
	return []goldenGoal{
		{name: "none"},
		{name: "req", goal: req, pruners: true},
		{name: "overlap-memo", goal: degree.Memoize(overlap), pruners: true},
		{name: "set", goal: set, pruners: true},
		{name: "expr", goal: ex, pruners: true},
		{name: "not", goal: notGoal{need: cat.MustSetOf(id(n - 1)), avoid: cat.MustSetOf(id(n / 2))}},
	}
}

// goldenCase is one generated catalog and window of the golden suite.
func goldenCase(t testing.TB, seed int64) (*catalog.Catalog, *degree.Requirement, status.Status, term.Term) {
	t.Helper()
	p := datagen.Default()
	p.Courses = 11 + int(seed%4)
	p.Terms = 8
	p.Layers = 3
	p.OfferProb = 0.6
	p.Seed = seed
	cat, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := datagen.GenerateRequirement(cat, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, cat.FirstTerm().Add(1+int(seed%2)), bitset.FromMembers(cat.Len(), 0, 1))
	return cat, req, start, start.Term.Add(5)
}

func resultLine(r Result) string {
	return fmt.Sprintf("%d/%d n%d e%d pt%d pa%d %s", r.Paths, r.GoalPaths, r.Nodes, r.Edges, r.PrunedTime, r.PrunedAvail, r.Stopped)
}

// dagGoldenLines renders every DAG counting mode, a budget-stopped run, a
// parallel build and the ranked search for each goal shape, selection
// size limit and empty-selection policy on three generated catalogs. The
// what-if impacts and the ranked paths appear as sums and costs plus an
// FNV-64a digest of the full listing, to keep the recording small.
func dagGoldenLines(t testing.TB) []string {
	t.Helper()
	type policy struct {
		name  string
		mtf   bool
		empty EmptyPolicy
	}
	policies := []policy{
		{"stuck", false, EmptyWhenStuck}, {"stuck+mtf", true, EmptyWhenStuck},
		{"always", false, EmptyAlways}, {"always+mtf", true, EmptyAlways},
		{"never", false, EmptyNever},
	}
	ctx := context.Background()
	var lines []string
	for seed := int64(1); seed <= 3; seed++ {
		cat, req, start, end := goldenCase(t, seed)
		for _, gg := range goldenGoals(t, cat, req) {
			for m := 1; m <= 3; m++ {
				for _, pol := range policies {
					opt := Options{MaxPerTerm: m, MinTakeFilter: pol.mtf, Empty: pol.empty, Substrate: SubstrateDAG}
					var pruners []Pruner
					if gg.pruners {
						pruners = PaperPruners(cat, gg.goal, m)
					}
					var b strings.Builder
					fmt.Fprintf(&b, "seed=%d goal=%s m=%d %s |", seed, gg.name, m, pol.name)
					count := func(o Options) Result {
						var r Result
						var err error
						if gg.goal == nil {
							r, err = DeadlineCount(cat, start, end, o)
						} else {
							r, err = GoalCount(cat, start, end, gg.goal, pruners, o)
						}
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					full := count(opt)
					fmt.Fprintf(&b, " count %s |", resultLine(full))
					budgeted := opt
					budgeted.Budget.MaxPaths = max(full.Edges/4, 1)
					fmt.Fprintf(&b, " maxpaths %s |", resultLine(count(budgeted)))
					par := opt
					par.Workers = 2
					fmt.Fprintf(&b, " workers %s |", resultLine(count(par)))
					if gg.goal == nil {
						lines = append(lines, b.String())
						continue
					}
					mr, err := GoalCountMulti(cat, start, end, 2, gg.goal, pruners, opt)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, " multi %v %s |", mr.GoalPathsAt, resultLine(mr.Result))
					sc, err := NewSharedCounter(cat, end, 1, gg.goal, pruners, opt, 0)
					if err != nil {
						t.Fatal(err)
					}
					sh, err := sc.Counts(ctx, start)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, " shared %d %v |", sh.Paths, sh.GoalPaths)
					impacts, err := CompareSelections(cat, start, end, gg.goal, pruners, opt)
					if err != nil {
						t.Fatal(err)
					}
					var sumGoal, sumPaths int64
					detail := fnv.New64a()
					for _, im := range impacts {
						sumGoal += im.GoalPaths
						sumPaths += im.Paths
						fmt.Fprintf(detail, "%v:%d/%d/%d;", cat.IDs(im.Selection), im.GoalPaths, im.Paths, im.NextOptions)
					}
					fmt.Fprintf(&b, " whatif %d Σ%d/%d #%x |", len(impacts), sumGoal, sumPaths, detail.Sum64())
					rankOpt := opt
					rankOpt.Substrate = SubstrateAuto
					rr, err := Ranked(cat, start, end, gg.goal, rank.Time{}, 3, pruners, rankOpt)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, " ranked n%d e%d popped%d pt%d pa%d", rr.Nodes, rr.Edges, rr.Popped, rr.PrunedTime, rr.PrunedAvail)
					detail.Reset()
					for _, p := range rr.Paths {
						fmt.Fprintf(&b, " %g", p.Cost)
						fmt.Fprintf(detail, "%s;", stepSignature(cat, rankedSteps(rr.Graph, p.Path)))
					}
					fmt.Fprintf(&b, " #%x", detail.Sum64())
					lines = append(lines, b.String())
				}
			}
		}
	}
	return lines
}

// TestDAGGoldenTallies holds every DAG counting mode's tallies — paths,
// nodes, edges and the prune split, budget-stopped partial runs, the
// multi-horizon, shared-counter and what-if answers — and the ranked
// search's effort and paths to a recording made before the deadline
// semester was folded in closed form and before ranked search derived
// option sets on pop. The memoised goal's workers entries came later,
// once parallel workers stopped sharing the caller's memo: each is a copy
// of that line's serial count.
func TestDAGGoldenTallies(t *testing.T) {
	want, err := os.ReadFile("testdata/dag_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	got := dagGoldenLines(t)
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}
