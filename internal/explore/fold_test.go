package explore

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
)

// enumerateLastLevel is the enumeration lastLevelCounts replaces: every
// selection engine.selections hands out from st, and how many of them
// reach a goal-satisfying completed set.
func enumerateLastLevel(e *engine, st status.Status, minTake int) (sel, goal int64) {
	_ = e.selections(st, minTake, func(w bitset.Set) error {
		sel++
		if e.goal != nil && e.goal.Satisfied(st.Completed.Union(w)) {
			goal++
		}
		return nil
	})
	return sel, goal
}

// randomStatus draws a completed set and a term inside the catalog's
// schedule and derives the status's options.
func randomStatus(cat *catalog.Catalog, rng *rand.Rand) status.Status {
	x := bitset.New(cat.Len())
	for c := 0; c < cat.Len(); c++ {
		if rng.Intn(3) == 0 {
			x.Add(c)
		}
	}
	return status.New(cat, cat.FirstTerm().Add(rng.Intn(6)), x)
}

// wideStatus returns a generated catalog and a status on it with at
// least four options.
func wideStatus(t *testing.T) (*catalog.Catalog, *degree.Requirement, status.Status) {
	t.Helper()
	cat, req, _, _ := goldenCase(t, 2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if st := randomStatus(cat, rng); st.Options.Len() >= 4 {
			return cat, req, st
		}
	}
	t.Fatal("no status with four options")
	return nil, nil, status.Status{}
}

// checkFold compares the closed-form fold with enumeration at st for one
// goal and option set, every minTake from 0 to m+1. It reports how many
// of those calls folded.
func checkFold(t *testing.T, cat *catalog.Catalog, goal degree.Goal, opt Options, st status.Status) int {
	t.Helper()
	e := newEngine(cat, st.Term.Next(), goal, nil, opt)
	folded := 0
	for minTake := 0; minTake <= opt.MaxPerTerm+1; minTake++ {
		sel, goalSel, ok := e.lastLevelCounts(st, minTake)
		if !ok {
			continue
		}
		folded++
		wantSel, wantGoal := enumerateLastLevel(e, st, minTake)
		if sel != wantSel || goalSel != wantGoal {
			t.Fatalf("goal %v, %+v, minTake %d, X=%v Y=%v: fold = %d/%d selections, enumeration = %d/%d",
				goal, opt, minTake, st.Completed, st.Options, sel, goalSel, wantSel, wantGoal)
		}
	}
	return folded
}

// TestDAGDeadlineFoldMatchesEnumeration holds the closed-form deadline
// fold to enumeration on seeded generated catalogs: every goal shape of
// the golden suite (no goal, disjoint and memoised overlapping
// requirements, a course set, an and/or expression, a goal with
// negation), m from 1 to 4, with and without MinTakeFilter, under every
// empty-selection policy.
func TestDAGDeadlineFoldMatchesEnumeration(t *testing.T) {
	folded := 0
	for seed := int64(1); seed <= 4; seed++ {
		cat, req, _, _ := goldenCase(t, seed)
		rng := rand.New(rand.NewSource(seed))
		sts := make([]status.Status, 12)
		for i := range sts {
			sts[i] = randomStatus(cat, rng)
		}
		for _, gg := range goldenGoals(t, cat, req) {
			for m := 1; m <= 4; m++ {
				for _, mtf := range []bool{false, true} {
					for _, empty := range []EmptyPolicy{EmptyWhenStuck, EmptyNever, EmptyAlways} {
						opt := Options{MaxPerTerm: m, MinTakeFilter: mtf, Empty: empty}
						for _, st := range sts {
							folded += checkFold(t, cat, gg.goal, opt, st)
						}
					}
				}
			}
		}
	}
	if folded < 1000 {
		t.Fatalf("only %d calls folded; the suite no longer exercises the fold", folded)
	}
}

// TestDAGDeadlineFoldFallbacks: every case the fold must leave to
// enumeration declines (TestDAGGoldenTallies holds the enumerated
// answers, budget-stopped partial tallies included, to the recording).
func TestDAGDeadlineFoldFallbacks(t *testing.T) {
	cat, _, st := wideStatus(t)
	opt := Options{MaxPerTerm: 3}
	set := mustGoalSet(t, cat, cat.ID(cat.Len()-1))
	declines := func(name string, e *engine, st status.Status) {
		t.Helper()
		if _, _, ok := e.lastLevelCounts(st, 0); ok {
			t.Errorf("%s: the fold applied", name)
		}
	}
	if _, _, ok := newEngine(cat, st.Term.Next(), set, nil, opt).lastLevelCounts(st, 0); !ok {
		t.Fatal("the unconstrained case does not fold; the fallbacks below prove nothing")
	}

	avoid, err := NewAvoid(cat, cat.ID(0))
	if err != nil {
		t.Fatal(err)
	}
	withAvoid := opt
	withAvoid.Constraints = []Constraint{avoid}
	declines("constraint", newEngine(cat, st.Term.Next(), set, nil, withAvoid), st)

	e := newEngine(cat, st.Term.Next(), set, nil, opt)
	e.sink = SinkFunc(func(Event) error { return nil })
	declines("sink", e, st)

	e = newEngine(cat, st.Term.Next(), set, nil, opt)
	e.ctl = newControl(context.Background(), Budget{MaxPaths: 1 << 40})
	declines("MaxPaths budget", e, st)

	stuck := status.Status{Term: st.Term, Completed: st.Completed, Options: bitset.New(cat.Len())}
	for _, empty := range []EmptyPolicy{EmptyWhenStuck, EmptyNever, EmptyAlways} {
		o := opt
		o.Empty = empty
		declines("empty options/"+empty.String(), newEngine(cat, st.Term.Next(), set, nil, o), stuck)
	}

	// Every option relevant: one goal test per selection, no saving.
	wide := degree.Goal(notGoal{need: st.Options, avoid: bitset.New(cat.Len())})
	declines("wide relevant set", newEngine(cat, st.Term.Next(), wide, nil, opt), st)
}

// TestDAGDeadlineFoldAllocatesNothing: once an engine has folded one
// goal node, further folds allocate nothing.
func TestDAGDeadlineFoldAllocatesNothing(t *testing.T) {
	cat, req, st := wideStatus(t)
	for _, gg := range goldenGoals(t, cat, req) {
		e := newEngine(cat, st.Term.Next(), gg.goal, nil, Options{MaxPerTerm: 3})
		e.lastLevelCounts(st, 0)
		if a := testing.AllocsPerRun(50, func() { e.lastLevelCounts(st, 0) }); a != 0 {
			t.Errorf("goal %s: a fold allocates %.1f times", gg.name, a)
		}
	}
}

// TestDAGDeadlineFoldFirstCallAllocatesLittle: the first fold on a fresh
// engine sizes its two scratch sets to the catalog rather than drawing
// them from the engine arena, whose first Make allocates a 2,048-word
// chunk the counting core never otherwise touches.
func TestDAGDeadlineFoldFirstCallAllocatesLittle(t *testing.T) {
	cat, req, st := wideStatus(t)
	for _, gg := range goldenGoals(t, cat, req) {
		if gg.name != "set" && gg.name != "expr" {
			continue
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			e := newEngine(cat, st.Term.Next(), gg.goal, nil, Options{MaxPerTerm: 3})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, ok := e.lastLevelCounts(st, 0)
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatalf("goal %s: the fold declined; the test needs a folding status", gg.name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 1024 {
			t.Errorf("goal %s: the first fold allocates %d B, want ≤ 1 KiB", gg.name, least)
		}
	}
}

// FuzzDeadlineFold holds the fold to enumeration over fuzzed catalogs,
// positions, goals and selection windows.
func FuzzDeadlineFold(f *testing.F) {
	f.Add(int64(1), uint8(2), false, uint8(0), uint8(1), uint64(0x5), uint8(0))
	f.Add(int64(3), uint8(3), true, uint8(2), uint8(4), uint64(0x30), uint8(2))
	f.Add(int64(7), uint8(4), false, uint8(1), uint8(5), uint64(0xff), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, mtf bool, empty, goalKind uint8, xbits uint64, minTake uint8) {
		cat, req, _, _ := goldenCase(t, seed%64)
		goals := goldenGoals(t, cat, req)
		gg := goals[int(goalKind)%len(goals)]
		x := bitset.New(cat.Len())
		for c := 0; c < cat.Len() && c < 64; c++ {
			if xbits&(1<<c) != 0 {
				x.Add(c)
			}
		}
		t0 := cat.FirstTerm().Add(int(xbits>>60) % 7)
		st := status.New(cat, t0, x)
		opt := Options{MaxPerTerm: 1 + int(m%5), MinTakeFilter: mtf, Empty: EmptyPolicy(empty % 3)}
		e := newEngine(cat, st.Term.Next(), gg.goal, nil, opt)
		mt := int(minTake % 6)
		sel, goalSel, ok := e.lastLevelCounts(st, mt)
		if !ok {
			return
		}
		if wantSel, wantGoal := enumerateLastLevel(e, st, mt); sel != wantSel || goalSel != wantGoal {
			t.Fatalf("goal %s, %+v, minTake %d, X=%v Y=%v: fold = %d/%d, enumeration = %d/%d",
				gg.name, opt, mt, st.Completed, st.Options, sel, goalSel, wantSel, wantGoal)
		}
	})
}
