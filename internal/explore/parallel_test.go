package explore

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// TestCountingModesAgreeOnRandomCatalogs is the counting-equivalence
// property over randomised catalogs: on every generated scenario, the plain
// serial tree count, the serial DAG count, and the parallel count at 2 and
// 8 workers on either substrate all report the same path and goal-path
// totals. Parallel tree runs must also reproduce the serial node/edge/prune
// tallies exactly (the subtree decomposition expands every status exactly
// once).
func TestCountingModesAgreeOnRandomCatalogs(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		serial, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Parallel {
			t.Fatalf("seed %d: serial run reported Parallel", seed)
		}

		dopt := rc.opt
		dopt.Substrate = SubstrateDAG
		dag, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, dopt)
		if err != nil {
			t.Fatal(err)
		}
		if dag.Paths != serial.Paths || dag.GoalPaths != serial.GoalPaths {
			t.Fatalf("seed %d: DAG %d/%d != serial %d/%d",
				seed, dag.Paths, dag.GoalPaths, serial.Paths, serial.GoalPaths)
		}

		for _, workers := range []int{2, 8} {
			for _, sub := range []Substrate{SubstrateTree, SubstrateDAG} {
				opt := rc.opt
				opt.Workers = workers
				opt.Substrate = sub
				par, err := GoalCount(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, opt)
				if err != nil {
					t.Fatal(err)
				}
				if par.Paths != serial.Paths || par.GoalPaths != serial.GoalPaths {
					t.Fatalf("seed %d workers=%d substrate=%v: parallel %d/%d != serial %d/%d",
						seed, workers, sub, par.Paths, par.GoalPaths, serial.Paths, serial.GoalPaths)
				}
				if sub == SubstrateTree && (par.Nodes != serial.Nodes || par.Edges != serial.Edges ||
					par.PrunedTime != serial.PrunedTime || par.PrunedAvail != serial.PrunedAvail) {
					t.Fatalf("seed %d workers=%d: parallel tallies %+v != serial %+v",
						seed, workers, par, serial)
				}
			}
		}
	}
}

// TestResultParallelFlag pins down when Result.Parallel is set: only on
// counting runs that actually fanned work out to a pool.
func TestResultParallelFlag(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, term.TwoSeason.MustTerm(2013, term.Fall), bitset.New(cat.Len()))
	end := brandeis.EndTerm()
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}

	serial, err := GoalCount(cat, start, end, goal, PaperPruners(cat, goal, opt.MaxPerTerm), opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Parallel {
		t.Error("Workers=0 run reported Parallel")
	}

	opt.Workers = 4
	par, err := GoalCount(cat, start, end, goal, PaperPruners(cat, goal, opt.MaxPerTerm), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Parallel {
		t.Error("fanned-out run did not report Parallel")
	}
	if par.Paths != serial.Paths || par.GoalPaths != serial.GoalPaths {
		t.Errorf("parallel %d/%d != serial %d/%d", par.Paths, par.GoalPaths, serial.Paths, serial.GoalPaths)
	}

	// A tree the serial pre-split fully consumes never reaches the pool:
	// the root is already a goal node.
	done := status.New(cat, start.Term, goal.Relevant())
	tiny, err := GoalCount(cat, done, end, goal, nil, Options{Workers: 8, MaxPerTerm: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Parallel {
		t.Error("pre-split-only run reported Parallel")
	}

	// Materialising runs stay serial regardless of Workers.
	mat, err := Goal(cat, start, term.TwoSeason.MustTerm(2015, term.Spring), goal,
		PaperPruners(cat, goal, 3), Options{MaxPerTerm: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Parallel {
		t.Error("materialising run reported Parallel")
	}
}

// TestParallelSharedMemoExactness drives the parallel DAG count, whose
// workers intern into levels shared across the pool, on the Brandeis
// dataset. Run under -race this is the concurrency test for the shared
// lock-striped levels; under a plain run it still checks count exactness
// against the serial DAG baseline.
func TestParallelSharedMemoExactness(t *testing.T) {
	cat := brandeis.Catalog()
	start := status.New(cat, term.TwoSeason.MustTerm(2013, term.Fall), bitset.New(cat.Len()))
	end := brandeis.EndTerm()
	serialOpt := Options{MaxPerTerm: 3, Substrate: SubstrateDAG}
	serial, err := DeadlineCount(cat, start, end, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opt := serialOpt
		opt.Workers = workers
		par, err := DeadlineCount(cat, start, end, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.Paths != serial.Paths {
			t.Errorf("workers=%d: merged parallel paths %d != serial %d", workers, par.Paths, serial.Paths)
		}
	}

	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	gSerial, err := GoalCount(cat, start, end, goal, PaperPruners(cat, goal, 3), serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	gopt := serialOpt
	gopt.Workers = 8
	gPar, err := GoalCount(cat, start, end, goal, PaperPruners(cat, goal, 3), gopt)
	if err != nil {
		t.Fatal(err)
	}
	if gPar.Paths != gSerial.Paths || gPar.GoalPaths != gSerial.GoalPaths {
		t.Errorf("goal merged parallel %d/%d != serial %d/%d",
			gPar.Paths, gPar.GoalPaths, gSerial.Paths, gSerial.GoalPaths)
	}
}

// TestParallelWorkersRewrapMemoisedGoal: a goal the caller already
// wrapped with degree.Memoize is single-goroutine, so parallel workers
// must each memoise its base goal rather than share the wrapper. Under
// -race, sharing it reports the workers' concurrent cache writes. Both
// parallel builders (the tree walk's and the DAG's) count the serial
// tallies.
func TestParallelWorkersRewrapMemoisedGoal(t *testing.T) {
	cat, req, start, end := goldenCase(t, 1)
	var overlap degree.Goal
	for _, gg := range goldenGoals(t, cat, req) {
		if gg.name == "overlap-memo" {
			overlap = gg.goal
		}
	}
	if degree.Unwrap(overlap) == overlap {
		t.Fatal("overlap-memo is not a memoised goal")
	}
	for _, sub := range []Substrate{SubstrateTree, SubstrateDAG} {
		for m := 1; m <= 3; m++ {
			opt := Options{MaxPerTerm: m, Empty: EmptyAlways, Substrate: sub}
			pruners := PaperPruners(cat, overlap, m)
			serial, err := GoalCount(cat, start, end, overlap, pruners, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers = 2
			par, err := GoalCount(cat, start, end, overlap, pruners, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !par.Parallel {
				t.Fatalf("substrate %v m=%d: run with 2 workers not parallel", sub, m)
			}
			if par.Paths != serial.Paths || par.GoalPaths != serial.GoalPaths {
				t.Errorf("substrate %v m=%d: parallel %d/%d, serial %d/%d",
					sub, m, par.Paths, par.GoalPaths, serial.Paths, serial.GoalPaths)
			}
		}
	}
}
