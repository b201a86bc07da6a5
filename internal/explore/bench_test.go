package explore

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/status"
	"repro/internal/term"
)

// benchEngine builds a goal-driven engine over the Brandeis dataset plus a
// spread of statuses at increasing depths, mirroring what expansion sees.
func benchEngine(b *testing.B) (*engine, []status.Status) {
	b.Helper()
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
	e := newEngine(cat, brandeis.EndTerm(), goal, PaperPruners(cat, goal, opt.MaxPerTerm), opt)
	start := status.New(cat, term.TwoSeason.MustTerm(2013, term.Fall), bitset.New(cat.Len()))
	sts := []status.Status{start}
	st := start
	for i := 0; i < 3; i++ {
		// Take the three lowest-numbered options each semester.
		w := bitset.New(cat.Len())
		n := 0
		st.Options.ForEach(func(c int) {
			if n < 3 {
				w.Add(c)
				n++
			}
		})
		st = st.Advance(cat, w)
		sts = append(sts, st)
	}
	return e, sts
}

// BenchmarkClassify measures the engine's per-node classification — goal
// test plus both pruner checks — the code the per-term caches and the
// allocation-free goal fast paths target.
func BenchmarkClassify(b *testing.B) {
	e, sts := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.classify(sts[i%len(sts)])
	}
}

// BenchmarkDAGCount measures deadline counting on the interned-status DAG
// substrate (the countOnly fast path). Gated by bench-regress: the DAG
// build is allocation-heavy by design (slab chunks, intern tables), so
// the baseline pins both its wall clock and its allocation profile.
func BenchmarkDAGCount(b *testing.B) {
	cat := brandeis.Catalog()
	start := status.New(cat, brandeis.StartForSemesters(4), bitset.New(cat.Len()))
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm, Substrate: SubstrateDAG}
	b.ReportAllocs()
	b.ResetTimer()
	var paths int64
	for i := 0; i < b.N; i++ {
		res, err := DeadlineCount(cat, start, brandeis.EndTerm(), opt)
		if err != nil {
			b.Fatal(err)
		}
		paths = res.Paths
	}
	b.ReportMetric(float64(paths), "paths/op")
}

// BenchmarkDAGCountSmall measures a Brandeis countOnly query of the size
// interactive traffic asks (a three-semester window, a dozen statuses).
// Gated by bench-regress on B/op: at this size the builder's initial
// slab and intern-table sizing, not the DP, set the cost.
func BenchmarkDAGCountSmall(b *testing.B) {
	cat := brandeis.Catalog()
	start := status.New(cat, brandeis.StartForSemesters(3), bitset.New(cat.Len()))
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm, Substrate: SubstrateDAG}
	b.ReportAllocs()
	b.ResetTimer()
	var paths int64
	for i := 0; i < b.N; i++ {
		res, err := DeadlineCount(cat, start, brandeis.EndTerm(), opt)
		if err != nil {
			b.Fatal(err)
		}
		paths = res.Paths
	}
	b.ReportMetric(float64(paths), "paths/op")
}

// BenchmarkDAGWhatIf measures what-if candidate deltas answered from one
// shared DAG build (CompareSelections on the DAG substrate). Gated by
// bench-regress alongside BenchmarkDAGCount.
func BenchmarkDAGWhatIf(b *testing.B) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		b.Fatal(err)
	}
	start := status.New(cat, brandeis.StartForSemesters(5), bitset.New(cat.Len()))
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm, Substrate: SubstrateDAG}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impacts, err := CompareSelections(cat, start, brandeis.EndTerm(), goal, pruners, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(impacts) == 0 {
			b.Fatal("no candidate selections")
		}
	}
}

// BenchmarkSelections measures course-selection enumeration from a mid-path
// status (the combinatorial inner loop of every expansion).
func BenchmarkSelections(b *testing.B) {
	e, sts := benchEngine(b)
	st := sts[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.selections(st, 0, func(w bitset.Set) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiHorizonProbe measures the delay probe's engine cost: ONE
// multi-deadline run answering every deadline in [end, end+4] — the unit
// that replaces up to horizon+1 dedicated counting runs in the cohort
// pipeline. Gated by bench-regress.
func BenchmarkMultiHorizonProbe(b *testing.B) {
	const horizon = 4
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		b.Fatal(err)
	}
	start := status.New(cat, brandeis.StartForSemesters(4), bitset.New(cat.Len()))
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, err := GoalCountMulti(cat, start, brandeis.EndTerm(), horizon, goal, pruners, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(mr.GoalPathsAt) != horizon+1 {
			b.Fatal("short horizon vector")
		}
	}
}
