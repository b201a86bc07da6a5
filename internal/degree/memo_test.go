package degree

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/term"
)

// benchCatalog is testCatalog without the *testing.T, for benchmarks.
func benchCatalog() (*catalog.Catalog, error) {
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	b := catalog.NewBuilder(term.TwoSeason)
	for _, id := range []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"} {
		b.Add(catalog.Course{ID: id, Offered: []term.Term{f11}})
	}
	return b.Build()
}

// overlappingReq builds a requirement whose group pools overlap, so matched
// runs the max-flow assignment and Memoize wraps it.
func overlappingReq(t *testing.T) *Requirement {
	t.Helper()
	cat := testCatalog(t)
	r, err := NewRequirement(cat,
		GroupSpec{Name: "a", Count: 2, Courses: []string{"c0", "c1", "c2", "c3"}},
		GroupSpec{Name: "b", Count: 2, Courses: []string{"c2", "c3", "c4", "c5"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMemoizeSkipsCheapGoals(t *testing.T) {
	cat := testCatalog(t)
	if Memoize(nil) != nil {
		t.Error("Memoize(nil) != nil")
	}
	cs, err := NewCourseSet(cat, "c1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if Memoize(cs) != Goal(cs) {
		t.Error("course-set goal was wrapped; its predicates are already O(words)")
	}
	disjoint, err := NewRequirement(cat,
		GroupSpec{Name: "a", Count: 1, Courses: []string{"c0", "c1"}},
		GroupSpec{Name: "b", Count: 1, Courses: []string{"c2", "c3"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if Memoize(disjoint) != Goal(disjoint) {
		t.Error("disjoint requirement was wrapped; it never runs max-flow")
	}
	small, err := NewExpr(cat, "(c0 and c1) or c2")
	if err != nil {
		t.Fatal(err)
	}
	if Memoize(small) != Goal(small) {
		t.Error("small expression was wrapped")
	}
}

func TestMemoizeWrapsExpensiveGoalsOnce(t *testing.T) {
	r := overlappingReq(t)
	m := Memoize(r)
	if m == Goal(r) {
		t.Fatal("overlapping requirement not wrapped")
	}
	if again := Memoize(m); again != m {
		t.Error("Memoize is not idempotent on a memoised goal")
	}
	if m.String() != r.String() || !m.Relevant().Equal(r.Relevant()) {
		t.Error("wrapper does not forward String/Relevant")
	}
}

// TestMemoizeMatchesRaw drives the memoised wrapper with random completed
// sets — including repeats, to exercise cache hits, and sets containing
// irrelevant courses, to exercise the projection key — and checks every
// answer against the unwrapped goal.
func TestMemoizeMatchesRaw(t *testing.T) {
	r := overlappingReq(t)
	m := Memoize(r)
	rng := rand.New(rand.NewSource(7))
	sets := make([]bitset.Set, 40)
	for i := range sets {
		s := bitset.New(10)
		for c := 0; c < 10; c++ {
			if rng.Intn(2) == 0 {
				s.Add(c)
			}
		}
		sets[i] = s
	}
	for round := 0; round < 3; round++ { // later rounds are pure cache hits
		for i, s := range sets {
			if got, want := m.Satisfied(s), r.Satisfied(s); got != want {
				t.Fatalf("round %d set %d: Satisfied = %v, want %v", round, i, got, want)
			}
			if got, want := m.Remaining(s), r.Remaining(s); got != want {
				t.Fatalf("round %d set %d: Remaining = %d, want %d", round, i, got, want)
			}
		}
	}
}

// TestMemoizeKeyIsProjection checks that two completed sets differing only
// outside the goal's relevant universe share a cache entry (the wrapper
// answers for one after only ever computing the other).
func TestMemoizeKeyIsProjection(t *testing.T) {
	r := overlappingReq(t)
	m := Memoize(r).(*memoGoal)
	cat := testCatalog(t)
	a := cat.MustSetOf("c0", "c2")
	b := cat.MustSetOf("c0", "c2", "c8", "c9") // c8, c9 are irrelevant to r
	_ = m.Remaining(a)
	if len(m.cache) != 1 {
		t.Fatalf("cache size %d after one miss", len(m.cache))
	}
	if got, want := m.Remaining(b), r.Remaining(b); got != want {
		t.Fatalf("Remaining = %d, want %d", got, want)
	}
	if len(m.cache) != 1 {
		t.Errorf("cache grew to %d: irrelevant courses changed the key", len(m.cache))
	}
}

// BenchmarkRequirementRemaining measures the per-node cost of the
// time-based strategy's left_i computation: a disjoint requirement (popcount
// path), an overlapping one (max-flow path), and the overlapping one behind
// the memoising wrapper (EXPERIMENTS.md records the comparison).
func BenchmarkRequirementRemaining(b *testing.B) {
	cat, err := benchCatalog()
	if err != nil {
		b.Fatal(err)
	}
	disjoint, err := NewRequirement(cat,
		GroupSpec{Name: "a", Count: 2, Courses: []string{"c0", "c1", "c2", "c3"}},
		GroupSpec{Name: "b", Count: 2, Courses: []string{"c4", "c5", "c6", "c7"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	overlap, err := NewRequirement(cat,
		GroupSpec{Name: "a", Count: 2, Courses: []string{"c0", "c1", "c2", "c3"}},
		GroupSpec{Name: "b", Count: 2, Courses: []string{"c2", "c3", "c4", "c5"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	sets := make([]bitset.Set, 16)
	rng := rand.New(rand.NewSource(11))
	for i := range sets {
		s := bitset.New(10)
		for c := 0; c < 10; c++ {
			if rng.Intn(2) == 0 {
				s.Add(c)
			}
		}
		sets[i] = s
	}
	run := func(b *testing.B, g Goal) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			sink += g.Remaining(sets[i%len(sets)])
		}
		_ = sink
	}
	b.Run("disjoint", func(b *testing.B) { run(b, disjoint) })
	b.Run("overlapping", func(b *testing.B) { run(b, overlap) })
	b.Run("overlapping-memoised", func(b *testing.B) { run(b, Memoize(overlap)) })
}

// TestGoalRelevantContract holds every goal type to the Goal contract the
// memo cache and the engine's deadline-semester fold rest on: Satisfied
// and Remaining answer the same for x and for x ∩ Relevant().
func TestGoalRelevantContract(t *testing.T) {
	cat := testCatalog(t)
	cs, err := NewCourseSet(cat, "c1", "c4", "c7")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExpr(cat, "(c0 and c1) or (c2 and (c3 or c5)) or c9")
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := NewRequirement(cat,
		GroupSpec{Name: "a", Count: 2, Courses: []string{"c0", "c1", "c2"}},
		GroupSpec{Name: "b", Count: 1, Courses: []string{"c5", "c6"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	overlapping := overlappingReq(t)
	goals := map[string]Goal{
		"course set":              cs,
		"expr":                    ex,
		"disjoint requirement":    disjoint,
		"overlapping requirement": overlapping,
		"memoised requirement":    Memoize(overlapping),
	}
	rng := rand.New(rand.NewSource(11))
	for name, g := range goals {
		rel := g.Relevant()
		for i := 0; i < 300; i++ {
			x := bitset.New(cat.Len())
			for c := 0; c < cat.Len(); c++ {
				if rng.Intn(2) == 0 {
					x.Add(c)
				}
			}
			proj := x.Intersect(rel)
			if got, want := g.Satisfied(x), g.Satisfied(proj); got != want {
				t.Fatalf("%s: Satisfied(%v) = %v but Satisfied(x ∩ Relevant = %v) = %v", name, x, got, proj, want)
			}
			if got, want := g.Remaining(x), g.Remaining(proj); got != want {
				t.Fatalf("%s: Remaining(%v) = %d but Remaining(x ∩ Relevant = %v) = %d", name, x, got, proj, want)
			}
		}
	}
}
