// Benchmarks regenerating the paper's evaluation (one per table/figure
// plus the design-choice ablations listed in DESIGN.md). Run:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; the reproduced quantities are
// the *relationships* the paper reports — pruning ≫ no-pruning (Table 1),
// goal-driven ≪ deadline-driven (Table 2), near-interactive top-k at
// every k (Figure 4). cmd/benchgen prints the corresponding tables in
// the paper's row format.
package coursenav_test

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro"
	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/datagen"
	"repro/internal/explore"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/transcript"
)

// The catalog and goal are cached across benchmarks.
var (
	benchCat      = brandeis.Catalog()
	benchMajor, _ = brandeis.Major(benchCat)
)

func benchStart(d int) status.Status {
	return status.New(benchCat, brandeis.StartForSemesters(d), bitset.New(benchCat.Len()))
}

func benchOpt() explore.Options {
	return explore.Options{MaxPerTerm: brandeis.MaxPerTerm}
}

func benchPruners() []explore.Pruner {
	return explore.PaperPruners(benchCat, benchMajor, brandeis.MaxPerTerm)
}

// --- Table 1: goal-driven generation with and without pruning ---------

func BenchmarkTable1GoalPruning(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

func BenchmarkTable1GoalNoPruning(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, nil, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

// --- Table 2: deadline-driven vs goal-driven scalability --------------

func BenchmarkTable2Deadline(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.DeadlineCount(benchCat, benchStart(d), brandeis.EndTerm(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Paths), "paths")
			}
		})
	}
}

func BenchmarkTable2DeadlineMaterialize(b *testing.B) {
	// The paper's Table 2 deadline rows materialise the graph (and run out
	// of memory past 5 semesters); this measures the materialising path.
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.Deadline(benchCat, benchStart(d), brandeis.EndTerm(), benchOpt())
				if err != nil {
					b.Fatal(err)
				}
				if res.Graph == nil {
					b.Fatal("no graph")
				}
			}
		})
	}
}

func BenchmarkTable2Goal(b *testing.B) {
	for _, d := range []int{4, 5} {
		b.Run(fmt.Sprintf("semesters=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: ranked top-k runtime ------------------------------------

func BenchmarkFigure4Ranked(b *testing.B) {
	for _, d := range []int{6, 7, 8} {
		for _, k := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("semesters=%d/k=%d", d, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := explore.Ranked(benchCat, benchStart(d), brandeis.EndTerm(), benchMajor,
						rank.Time{}, k, benchPruners(), benchOpt())
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Paths) != k {
						b.Fatalf("found %d paths", len(res.Paths))
					}
				}
			})
		}
	}
}

func BenchmarkFigure4RankedWorkload(b *testing.B) {
	// The paper's Figure 4 uses time-based ranking; workload exercises the
	// weaker-heuristic ranker. Its A* bound (left × cheapest workload) is
	// loose, so the search degenerates toward uniform-cost on wide windows;
	// the 5-semester window keeps the explored tree pruning-bounded.
	w := rank.Workload{W: benchCat.Workloads()}
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.Ranked(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor,
					w, k, benchPruners(), benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- DAG substrate: counting and what-if vs the tree walk ---------------

// BenchmarkCountTreeVsDAG compares deadline counting on the two
// substrates. The tree walk's cost scales with the number of paths; the
// DAG's with the number of distinct (semester, completed-set) statuses,
// which grows orders of magnitude slower — EXPERIMENTS.md records the
// measured gap. The 8-semester empty-start rows are skipped: the status
// DAG's edge count grows roughly three orders of magnitude per two added
// semesters, so even the DAG build is far beyond interactive there (and
// the tree walk's ~10^13 paths are hopeless).
func BenchmarkCountTreeVsDAG(b *testing.B) {
	substrates := []struct {
		name string
		s    explore.Substrate
	}{
		{"tree", explore.SubstrateTree},
		{"dag", explore.SubstrateDAG},
	}
	for _, d := range []int{4, 6, 8} {
		for _, sub := range substrates {
			b.Run(fmt.Sprintf("semesters=%d/substrate=%s", d, sub.name), func(b *testing.B) {
				if d >= 8 {
					b.Skip("8-semester empty-start counting is infeasible on either substrate (DAG edges grow ~1000x per two semesters; the tree has ~10^13 paths)")
				}
				opt := benchOpt()
				opt.Substrate = sub.s
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := explore.DeadlineCount(benchCat, benchStart(d), brandeis.EndTerm(), opt)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Paths), "paths")
				}
			})
		}
	}
}

// BenchmarkWhatIfDelta compares what-if analysis (per-candidate path
// deltas for the next term) on the two substrates. The DAG variant scores
// every candidate with one memoised tally over distinct statuses instead
// of re-walking a tree per candidate. The tree rows stop at d = 5: a tree
// what-if at d = 6 runs for minutes.
func BenchmarkWhatIfDelta(b *testing.B) {
	substrates := []struct {
		name string
		s    explore.Substrate
	}{
		{"tree", explore.SubstrateTree},
		{"dag", explore.SubstrateDAG},
	}
	for _, d := range []int{5, 6} {
		for _, sub := range substrates {
			if d > 5 && sub.s == explore.SubstrateTree {
				continue
			}
			b.Run(fmt.Sprintf("semesters=%d/substrate=%s", d, sub.name), func(b *testing.B) {
				opt := benchOpt()
				opt.Substrate = sub.s
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impacts, _, err := explore.CompareSelectionsCtx(context.Background(), benchCat,
						benchStart(d), brandeis.EndTerm(), benchMajor, benchPruners(), opt)
					if err != nil {
						b.Fatal(err)
					}
					if len(impacts) == 0 {
						b.Fatal("no candidate selections")
					}
				}
			})
		}
	}
}

// --- §5.2: transcript containment --------------------------------------

func BenchmarkTranscriptGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trs, err := transcript.Generate(benchCat, benchMajor, brandeis.StartForSemesters(6),
			brandeis.EndTerm(), brandeis.MaxPerTerm, 83, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(trs) != 83 {
			b.Fatal("short generation")
		}
	}
}

func BenchmarkTranscriptReplay(b *testing.B) {
	trs, err := transcript.Generate(benchCat, benchMajor, brandeis.StartForSemesters(6),
		brandeis.EndTerm(), brandeis.MaxPerTerm, 83, 2016)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := transcript.Replay(benchCat, tr, brandeis.MaxPerTerm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md design choices) -------------------------------

// BenchmarkAblationMergeStatuses compares plain tree counting against
// counting on the interned-status DAG on the same query.
func BenchmarkAblationMergeStatuses(b *testing.B) {
	for _, sub := range []explore.Substrate{explore.SubstrateTree, explore.SubstrateDAG} {
		b.Run("substrate="+sub.String(), func(b *testing.B) {
			opt := benchOpt()
			opt.Substrate = sub
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.DeadlineCount(benchCat, benchStart(4), brandeis.EndTerm(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinTakeFilter compares child-side time pruning (the
// paper's algorithm) against generation-side selection filtering.
func BenchmarkAblationMinTakeFilter(b *testing.B) {
	for _, filter := range []bool{false, true} {
		b.Run(fmt.Sprintf("filter=%v", filter), func(b *testing.B) {
			opt := benchOpt()
			opt.MinTakeFilter = filter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor, benchPruners(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrereqAwareAvail compares the paper's schedule-only
// availability pruning with the prerequisite-aware refinement.
func BenchmarkAblationPrereqAwareAvail(b *testing.B) {
	for _, aware := range []bool{false, true} {
		b.Run(fmt.Sprintf("prereqAware=%v", aware), func(b *testing.B) {
			pruners := []explore.Pruner{
				explore.TimePruner{Goal: benchMajor, MaxPerTerm: brandeis.MaxPerTerm},
				explore.AvailPruner{Cat: benchCat, Goal: benchMajor, PrereqAware: aware},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.GoalCount(benchCat, benchStart(5), brandeis.EndTerm(), benchMajor, pruners, benchOpt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEmptyPolicy measures the cost of the three
// empty-selection policies on the deadline algorithm.
func BenchmarkAblationEmptyPolicy(b *testing.B) {
	for _, policy := range []explore.EmptyPolicy{explore.EmptyWhenStuck, explore.EmptyNever, explore.EmptyAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			opt := benchOpt()
			opt.Empty = policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := explore.DeadlineCount(benchCat, benchStart(3), brandeis.EndTerm(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelCount measures counting-mode speedup from the
// Workers fan-out on the 5-semester deadline query.
func BenchmarkAblationParallelCount(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpt()
			opt.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.DeadlineCount(benchCat, benchStart(5), brandeis.EndTerm(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Paths != 95715 {
					b.Fatalf("paths = %d", res.Paths)
				}
			}
		})
	}
}

// BenchmarkAblationParallelMergeCount combines the Workers fan-out with
// the interned-status DAG: workers expand each level together, interning
// into shared lock-striped levels, so every distinct status is counted
// once across the pool. Path counts are pinned to the serial value.
func BenchmarkAblationParallelMergeCount(b *testing.B) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpt()
			opt.Workers = workers
			opt.Substrate = explore.SubstrateDAG
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := explore.DeadlineCount(benchCat, benchStart(5), brandeis.EndTerm(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Paths != 95715 {
					b.Fatalf("paths = %d", res.Paths)
				}
			}
		})
	}
}

// --- Ingestion: registrar dump → Navigator (paper §3, Figure 2) -------

// registrarText renders nav's catalog as registrar text, one block per
// course with the prerequisite in its description plus one "COURSE | TERM"
// schedule record per offering — the shape a hot reload parses.
func registrarText(nav *coursenav.Navigator) (catalogDump, schedule []byte) {
	var cat, sched bytes.Buffer
	for _, c := range nav.Courses() {
		fmt.Fprintf(&cat, "course: %s\ntitle: %s\ndescription: %s.", c.ID, c.Title, c.Title)
		if c.Prereq != "" {
			fmt.Fprintf(&cat, " Prerequisite: %s.", c.Prereq)
		}
		fmt.Fprintf(&cat, "\nworkload: %s\n\n", strconv.FormatFloat(c.Workload, 'g', -1, 64))
		for _, t := range c.Offered {
			fmt.Fprintf(&sched, "%s | %s\n", c.ID, t)
		}
	}
	return cat.Bytes(), sched.Bytes()
}

// benchRegistrarLoad imports nav's catalog from registrar text over the
// window [first, last] once per iteration, reporting the time per course
// beside the time per import.
func benchRegistrarLoad(b *testing.B, nav *coursenav.Navigator, first, last string) {
	cat, sched := registrarText(nav)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := coursenav.NewFromRegistrarDump(bytes.NewReader(cat), bytes.NewReader(sched), first, last)
		if err != nil {
			b.Fatal(err)
		}
		if got.NumCourses() != nav.NumCourses() {
			b.Fatalf("courses = %d, want %d", got.NumCourses(), nav.NumCourses())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nav.NumCourses()), "ns/course")
}

// BenchmarkRegistrarLoad is one catalog reload's parse: the Prerequisite
// and Schedule parsers over the rendered 38-course dump, then catalog
// construction. A per-call regexp or replacer compile shows up here as
// thousands of extra allocs/op.
func BenchmarkRegistrarLoad(b *testing.B) {
	nav, _ := coursenav.Brandeis()
	benchRegistrarLoad(b, nav, brandeis.FirstTerm().Label(), brandeis.EndTerm().Label())
}

// BenchmarkRegistrarLoad2000 is the same import at institution scale: a
// 2,000-course generated catalog in the same text shape. Its ns/course
// stays close to RegistrarLoad's when the import is linear in the dump.
func BenchmarkRegistrarLoad2000(b *testing.B) {
	p := datagen.Default()
	p.Courses = 2000
	cat, err := datagen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	benchRegistrarLoad(b, coursenav.NewFromCatalog(cat), cat.FirstTerm().Label(), cat.LastTerm().Label())
}

// --- Serving set-up: the hot set's two engine requests ------------------

// hotSetQuery is the most expensive position in the serving benchmark's
// hot set: a student with eight courses done in Spring 2014, counting or
// ranking paths to COSI 140A and COSI 146A by Fall 2015 at m = 3. A fresh
// server (or a tenant after a reload) computes it cold, so its two
// requests set most of the set-up time.
func hotSetQuery(b *testing.B) (*coursenav.Navigator, coursenav.Query, coursenav.Goal) {
	b.Helper()
	nav, _ := coursenav.Brandeis()
	g, err := nav.GoalCourses("COSI 140A", "COSI 146A")
	if err != nil {
		b.Fatal(err)
	}
	q := coursenav.Query{
		Completed: []string{"COSI 111A", "COSI 11A", "COSI 190A", "COSI 21A",
			"COSI 29A", "COSI 2A", "COSI 30A", "COSI 33B"},
		Start: "Spring 2014", End: "Fall 2015", MaxPerTerm: 3,
	}
	return nav, q, g
}

// BenchmarkHotSetCount is the hot position's goal countOnly request.
// Gated by bench-regress: enumerating the deadline semester one
// selection at a time instead of folding it shows up as a multiple of
// the pinned time.
func BenchmarkHotSetCount(b *testing.B) {
	nav, q, g := hotSetQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sum coursenav.Summary
	for i := 0; i < b.N; i++ {
		var err error
		if sum, err = nav.GoalPathsCount(q, g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sum.GoalPaths), "goalPaths/op")
}

// BenchmarkHotSetTopK is the hot position's time-ranked top-3 request.
// Gated by bench-regress: deriving every generated child's option set,
// or storing the frontier graph in a doubling slice, shows up in its
// bytes and allocations.
func BenchmarkHotSetTopK(b *testing.B) {
	nav, q, g := hotSetQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sum coursenav.Summary
	for i := 0; i < b.N; i++ {
		var err error
		if _, sum, err = nav.TopK(q, g, "time", 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sum.Nodes), "nodes/op")
}
