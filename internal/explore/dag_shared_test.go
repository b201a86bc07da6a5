package explore

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/status"
)

// TestMultiHorizonMatchesPerDeadlineRuns pins the multi-deadline query's
// exactness: one GoalCountMulti run reports, for every deadline in
// [end, end+horizon], the same goal-path total a dedicated single run at
// that deadline reports — on the tree walk and on the DAG.
func TestMultiHorizonMatchesPerDeadlineRuns(t *testing.T) {
	const horizon = 3
	for seed := int64(1); seed <= 8; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		mr, err := GoalCountMulti(rc.cat, rc.startStatus(), rc.end, horizon, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(mr.GoalPathsAt) != horizon+1 {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(mr.GoalPathsAt), horizon+1)
		}
		if got, want := mr.GoalPathsAt[horizon], mr.GoalPaths; got != want {
			t.Fatalf("seed %d: GoalPathsAt[horizon] %d != Result.GoalPaths %d", seed, got, want)
		}
		for i := 0; i <= horizon; i++ {
			tree, err := GoalCount(rc.cat, rc.startStatus(), rc.end.Add(i), rc.req, pruners, rc.opt)
			if err != nil {
				t.Fatal(err)
			}
			dag, err := GoalCount(rc.cat, rc.startStatus(), rc.end.Add(i), rc.req, pruners, dagOpt(rc.opt))
			if err != nil {
				t.Fatal(err)
			}
			if mr.GoalPathsAt[i] != tree.GoalPaths || mr.GoalPathsAt[i] != dag.GoalPaths {
				t.Errorf("seed %d deadline end+%d: multi %d, tree %d, dag %d",
					seed, i, mr.GoalPathsAt[i], tree.GoalPaths, dag.GoalPaths)
			}
		}
	}
}

// TestMultiHorizonParallelMatchesSerial pins the parallel multi-deadline
// build (merged per-worker goal buckets) against the serial one.
func TestMultiHorizonParallelMatchesSerial(t *testing.T) {
	const horizon = 4
	for seed := int64(1); seed <= 6; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		serial, err := GoalCountMulti(rc.cat, rc.startStatus(), rc.end, horizon, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		popt := rc.opt
		popt.Workers = 4
		par, err := GoalCountMulti(rc.cat, rc.startStatus(), rc.end, horizon, rc.req, pruners, popt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.GoalPathsAt {
			if serial.GoalPathsAt[i] != par.GoalPathsAt[i] {
				t.Errorf("seed %d deadline end+%d: serial %d != parallel %d",
					seed, i, serial.GoalPathsAt[i], par.GoalPathsAt[i])
			}
		}
		if serial.Paths != par.Paths || serial.GoalPaths != par.GoalPaths {
			t.Errorf("seed %d: totals serial %d/%d != parallel %d/%d",
				seed, serial.Paths, serial.GoalPaths, par.Paths, par.GoalPaths)
		}
	}
}

// memberPositions derives a deterministic set of cohort-like positions —
// (completed set, start term) pairs — for the shared-counter property
// tests. Positions need not be reachable histories: counting semantics
// depend only on the resulting status.
func memberPositions(rc randomCase, n int, seed int64) []status.Status {
	rng := rand.New(rand.NewSource(seed))
	out := make([]status.Status, 0, n)
	for i := 0; i < n; i++ {
		x := bitset.New(rc.cat.Len())
		for ci := 0; ci < rc.cat.Len(); ci++ {
			if rng.Intn(4) == 0 {
				x.Add(ci)
			}
		}
		out = append(out, status.New(rc.cat, rc.start.Add(i%2), x))
	}
	return out
}

// TestSharedCounterMatchesSingleRuns is the cross-member reuse property:
// every member's shared-substrate answer — at every horizon — equals a
// dedicated multi-deadline run (itself pinned to the tree walk above),
// regardless of the order members are queried in, and repeated queries
// are pure hits.
func TestSharedCounterMatchesSingleRuns(t *testing.T) {
	const horizon = 2
	for seed := int64(1); seed <= 6; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		members := memberPositions(rc, 12, seed)

		want := make([]MultiResult, len(members))
		for i, st := range members {
			mr, err := GoalCountMulti(rc.cat, st, rc.end, horizon, rc.req, pruners, rc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = mr
		}

		for _, order := range [][]int{forwardOrder(len(members)), reverseOrder(len(members))} {
			sc, err := NewSharedCounter(rc.cat, rc.end, horizon, rc.req, pruners, rc.opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range order {
				got, err := sc.Counts(context.Background(), members[i])
				if err != nil {
					t.Fatal(err)
				}
				if got.Paths != want[i].Paths {
					t.Errorf("seed %d member %d: shared paths %d != single %d", seed, i, got.Paths, want[i].Paths)
				}
				for h := 0; h <= horizon; h++ {
					if got.GoalPaths[h] != want[i].GoalPathsAt[h] {
						t.Errorf("seed %d member %d horizon %d: shared %d != single %d",
							seed, i, h, got.GoalPaths[h], want[i].GoalPathsAt[h])
					}
				}
			}
			// Second pass: every root is now interned; answers are pure
			// hits and identical.
			for _, i := range order {
				got, err := sc.Counts(context.Background(), members[i])
				if err != nil {
					t.Fatal(err)
				}
				if !got.Hit || got.NewStatuses != 0 {
					t.Errorf("seed %d member %d: second query hit=%v new=%d", seed, i, got.Hit, got.NewStatuses)
				}
				if got.Paths != want[i].Paths || got.GoalPaths[horizon] != want[i].GoalPathsAt[horizon] {
					t.Errorf("seed %d member %d: hit answer drifted", seed, i)
				}
			}
			// A first-pass query may itself be a hit (the root was reached
			// as an interior status of an earlier member's build); the
			// second pass is all hits.
			st := sc.Stats()
			if st.Hits+st.Builds != 2*int64(len(members)) || st.Builds < 1 || st.Builds > int64(len(members)) {
				t.Errorf("seed %d: stats hits=%d builds=%d, want hits+builds=%d", seed, st.Hits, st.Builds, 2*len(members))
			}
		}
	}
}

func forwardOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func reverseOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestSharedCounterEvictsOverBudget: a counter whose budget is below one
// build's status count answers correctly, then evicts wholesale, and the
// next query still answers correctly from cold.
func TestSharedCounterEvictsOverBudget(t *testing.T) {
	rc := newRandomCase(t, 3)
	pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
	sc, err := NewSharedCounter(rc.cat, rc.end, 1, rc.req, pruners, rc.opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GoalCountMulti(rc.cat, rc.startStatus(), rc.end, 1, rc.req, pruners, rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := sc.Counts(context.Background(), rc.startStatus())
		if err != nil {
			t.Fatal(err)
		}
		if got.Hit {
			t.Fatalf("round %d: hit on an evicted counter", round)
		}
		if got.Paths != want.Paths || got.GoalPaths[1] != want.GoalPathsAt[1] {
			t.Fatalf("round %d: %d/%v != %d/%v", round, got.Paths, got.GoalPaths, want.Paths, want.GoalPathsAt)
		}
	}
	if st := sc.Stats(); st.Evictions < 2 || st.Statuses != 0 {
		t.Fatalf("stats after over-budget rounds: %+v", st)
	}
}

// TestSharedCounterCancel: a cancelled context aborts a build with an
// error; the counter remains usable and correct afterwards.
func TestSharedCounterCancel(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxPerTerm: 3}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	start := emptyStart(cat, f11.Add(4))
	end := f11.Add(8)
	sc, err := NewSharedCounter(cat, end, 1, goal, pruners, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.Counts(ctx, start); err == nil {
		t.Fatal("cancelled build returned no error")
	}
	want, err := GoalCountMulti(cat, start, end, 1, goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Counts(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Paths != want.Paths || got.GoalPaths[0] != want.GoalPathsAt[0] || got.GoalPaths[1] != want.GoalPathsAt[1] {
		t.Fatalf("post-cancel counts %d/%v != %d/%v", got.Paths, got.GoalPaths, want.Paths, want.GoalPathsAt)
	}
}

// TestSharedCounterConcurrent hammers one counter from several
// goroutines (mixed hits and builds) under -race; every answer must
// match the dedicated run.
func TestSharedCounterConcurrent(t *testing.T) {
	rc := newRandomCase(t, 5)
	pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
	members := memberPositions(rc, 8, 5)
	want := make([]MultiResult, len(members))
	for i, st := range members {
		mr, err := GoalCountMulti(rc.cat, st, rc.end, 2, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mr
	}
	sc, err := NewSharedCounter(rc.cat, rc.end, 2, rc.req, pruners, rc.opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for rep := 0; rep < 3; rep++ {
				for i, st := range members {
					got, err := sc.Counts(context.Background(), st)
					if err != nil {
						errs <- err
						return
					}
					if got.Paths != want[i].Paths || got.GoalPaths[2] != want[i].GoalPathsAt[2] {
						errs <- errSharedBudget // any sentinel: mismatch reported below
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedCounterHugeBudgetIsUncapped: the hard cap is twice the status
// budget, saturating, so a budget past MaxInt64/2 means no cap rather
// than a negative one that aborts every build.
func TestSharedCounterHugeBudgetIsUncapped(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MaxPerTerm: 2}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	start := emptyStart(cat, f12)
	end := brandeis.EndTerm()
	want, err := GoalCountMulti(cat, start, end, 0, goal, pruners, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, math.MaxInt64 / 2, math.MaxInt64/2 + 1, math.MaxInt64} {
		sc, err := NewSharedCounter(cat, end, 0, goal, pruners, opt, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Counts(context.Background(), start)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got.Paths != want.Paths || got.GoalPaths[0] != want.GoalPathsAt[0] {
			t.Errorf("budget %d: %d/%d paths, want %d/%d", budget, got.Paths, got.GoalPaths[0], want.Paths, want.GoalPathsAt[0])
		}
		if st := sc.Stats(); st.Evictions != 0 || st.Statuses == 0 {
			t.Errorf("budget %d: stats %+v, want statuses kept and no eviction", budget, st)
		}
	}
}

// TestSharedCounterSaturates: a tally past MaxInt64 reads MaxInt64, as
// the counting core's does, instead of wrapping negative.
func TestSharedCounterSaturates(t *testing.T) {
	cat := wideCatalog(t)
	start := emptyStart(cat, f11)
	goal := mustGoalSet(t, cat, "XX 100", "XX 101")
	want, err := GoalCountMulti(cat, start, s13, 0, goal, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Paths != math.MaxInt64 {
		t.Fatalf("GoalCountMulti paths = %d, want the saturated MaxInt64", want.Paths)
	}
	sc, err := NewSharedCounter(cat, s13, 0, goal, nil, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Counts(context.Background(), start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Paths != want.Paths || got.GoalPaths[0] != want.GoalPathsAt[0] {
		t.Errorf("Counts = %d/%d, GoalCountMulti = %d/%d", got.Paths, got.GoalPaths[0], want.Paths, want.GoalPathsAt[0])
	}
}
