package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/term"
)

// stepSignature renders a streamed spine in pathSignature's form, e.g.
// "{11A,29A}/{}/{11A}".
func stepSignature(cat *catalog.Catalog, steps []Step) string {
	parts := make([]string, 0, len(steps))
	for _, s := range steps {
		parts = append(parts, "{"+strings.Join(cat.IDs(s.Selection), ",")+"}")
	}
	return strings.Join(parts, "/")
}

// collectStream runs Stream and gathers the path-event signatures.
func collectStream(t *testing.T, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) ([]string, []string, Result) {
	t.Helper()
	var all, goals []string
	sink := SinkFunc(func(ev Event) error {
		if ev.Kind != KindPath {
			return nil
		}
		sig := stepSignature(cat, ev.Steps)
		all = append(all, sig)
		if ev.Goal {
			goals = append(goals, sig)
		}
		return nil
	})
	res, err := Stream(context.Background(), cat, start, end, goal, pruners, opt, sink)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	sort.Strings(goals)
	return all, goals, res
}

// TestStreamMatchesMaterializedFig3 checks the streamed path set against
// the Figure 3 graph.
func TestStreamMatchesMaterializedFig3(t *testing.T) {
	cat := fig3Catalog(t)
	mat, err := Deadline(cat, emptyStart(cat, f11), s13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, _, res := collectStream(t, cat, emptyStart(cat, f11), s13, nil, nil, Options{})
	want := signatures(cat, mat.Graph, false)
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("streamed paths %v != materialised %v", all, want)
	}
	if res.Paths != mat.Paths || res.Nodes != mat.Nodes || res.Edges != mat.Edges {
		t.Fatalf("streamed tallies %+v != materialised %+v", res, mat)
	}
}

// TestStreamMatchesMaterializedRandom is the property test behind the
// streaming refactor: on random catalogs, with and without pruners, the
// streamed path events are exactly the materialised graph's maximal
// paths (same multiset), the goal-flagged subset is exactly the goal
// paths, and the tallies agree.
func TestStreamMatchesMaterializedRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rc := newRandomCase(t, seed)
		for _, withPruners := range []bool{false, true} {
			var pruners []Pruner
			if withPruners {
				pruners = PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
			}
			mat, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			all, goals, res := collectStream(t, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
			wantAll := signatures(rc.cat, mat.Graph, false)
			wantGoals := signatures(rc.cat, mat.Graph, true)
			if fmt.Sprint(all) != fmt.Sprint(wantAll) {
				t.Fatalf("seed %d pruners=%v: streamed %v != materialised %v", seed, withPruners, all, wantAll)
			}
			if fmt.Sprint(goals) != fmt.Sprint(wantGoals) {
				t.Fatalf("seed %d pruners=%v: streamed goal paths %v != materialised %v", seed, withPruners, goals, wantGoals)
			}
			if res.Paths != mat.Paths || res.GoalPaths != mat.GoalPaths ||
				res.Nodes != mat.Nodes || res.Edges != mat.Edges {
				t.Fatalf("seed %d pruners=%v: streamed tallies %+v != materialised %+v", seed, withPruners, res, mat)
			}
		}
	}
}

// TestStreamParallelMatchesSerial checks the parallel streaming fan-out:
// Workers > 1 delivers the same path multiset as the serial walk (order
// is nondeterministic), with exact path tallies. Runs under -race in the
// race gate.
func TestStreamParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		serialAll, serialGoals, serialRes := collectStream(t, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)

		popt := rc.opt
		popt.Workers = 4
		parAll, parGoals, parRes := collectStream(t, rc.cat, rc.startStatus(), rc.end, rc.req, pruners, popt)
		if fmt.Sprint(parAll) != fmt.Sprint(serialAll) {
			t.Fatalf("seed %d: parallel streamed multiset differs\nparallel: %v\nserial:   %v", seed, parAll, serialAll)
		}
		if fmt.Sprint(parGoals) != fmt.Sprint(serialGoals) {
			t.Fatalf("seed %d: parallel goal multiset differs", seed)
		}
		if parRes.Paths != serialRes.Paths || parRes.GoalPaths != serialRes.GoalPaths {
			t.Fatalf("seed %d: parallel tallies %+v != serial %+v", seed, parRes, serialRes)
		}
	}
}

// TestCollectSinkRebuildsResult proves the tentpole equivalence from the
// outside: a public Stream run collected by a CollectSink reproduces the
// legacy materialised Result — same node/edge counts, same path sets,
// same goal marks.
func TestCollectSinkRebuildsResult(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rc := newRandomCase(t, seed)
		pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
		legacy, err := Goal(rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt)
		if err != nil {
			t.Fatal(err)
		}
		cs := NewCollectSink(rc.startStatus())
		res, err := Stream(context.Background(), rc.cat, rc.startStatus(), rc.end, rc.req, pruners, rc.opt, cs)
		if err != nil {
			t.Fatal(err)
		}
		g := cs.Graph()
		if g.NumNodes() != legacy.Graph.NumNodes() || g.NumEdges() != legacy.Graph.NumEdges() {
			t.Fatalf("seed %d: collected graph %d/%d != legacy %d/%d", seed,
				g.NumNodes(), g.NumEdges(), legacy.Graph.NumNodes(), legacy.Graph.NumEdges())
		}
		if got, want := signatures(rc.cat, g, false), signatures(rc.cat, legacy.Graph, false); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: collected paths %v != legacy %v", seed, got, want)
		}
		if got, want := signatures(rc.cat, g, true), signatures(rc.cat, legacy.Graph, true); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: collected goal paths %v != legacy %v", seed, got, want)
		}
		if res.Paths != legacy.Paths || res.GoalPaths != legacy.GoalPaths {
			t.Fatalf("seed %d: stream tallies %+v != legacy %+v", seed, res, legacy)
		}
	}
}

// TestStreamSinkStop: ErrStopEmit from the sink ends the run cleanly with
// Stopped == StopSink after exactly the delivered prefix.
func TestStreamSinkStop(t *testing.T) {
	rc := newRandomCase(t, 1)
	delivered := 0
	sink := SinkFunc(func(ev Event) error {
		if ev.Kind != KindPath {
			return nil
		}
		delivered++
		if delivered >= 2 {
			return ErrStopEmit
		}
		return nil
	})
	res, err := Stream(context.Background(), rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt, sink)
	if err != nil {
		t.Fatalf("clean sink stop returned error: %v", err)
	}
	if res.Stopped != StopSink || !res.Truncated {
		t.Fatalf("Stopped = %q Truncated = %v, want %q/true", res.Stopped, res.Truncated, StopSink)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d paths, want 2", delivered)
	}
}

// TestStreamNoEventAfterCancel asserts the mid-stream cancellation
// contract: once the context is cancelled (here, synchronously from
// inside the sink), the sink never receives another event. Parallel
// emission is serialised — and the run control re-checked — under the
// shared sink lock, so the flags below stay single-writer and the
// guarantee holds across workers; the test runs under -race in the race
// gate.
func TestStreamNoEventAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rc := newRandomCase(t, 2)
			rc.opt.Workers = workers
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events := 0
			cancelled := false
			late := 0
			sink := SinkFunc(func(ev Event) error {
				if cancelled {
					late++
					return nil
				}
				events++
				if events == 10 {
					cancel()
					cancelled = true
				}
				return nil
			})
			res, err := Stream(ctx, rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt, sink)
			if err != nil {
				t.Fatal(err)
			}
			if late != 0 {
				t.Fatalf("sink received %d events after its context was cancelled", late)
			}
			if cancelled && res.Stopped != StopCanceled {
				t.Fatalf("Stopped = %q, want %q", res.Stopped, StopCanceled)
			}
		})
	}
}

// TestStreamBudgetPrefix: a path-budgeted stream delivers a subset of the
// full run's multiset, with the delivered count matching the tally.
func TestStreamBudgetPrefix(t *testing.T) {
	rc := newRandomCase(t, 4)
	full, _, _ := collectStream(t, rc.cat, rc.startStatus(), rc.end, rc.req, nil, rc.opt)
	if len(full) < 5 {
		t.Skip("case too small to truncate")
	}
	bopt := rc.opt
	bopt.Budget = Budget{MaxPaths: 4}
	got, _, res := collectStream(t, rc.cat, rc.startStatus(), rc.end, rc.req, nil, bopt)
	if res.Stopped != StopMaxPaths {
		t.Fatalf("Stopped = %q, want %q", res.Stopped, StopMaxPaths)
	}
	if int64(len(got)) != res.Paths {
		t.Fatalf("delivered %d paths but tally says %d", len(got), res.Paths)
	}
	idx := map[string]int{}
	for _, s := range full {
		idx[s]++
	}
	for _, s := range got {
		if idx[s] == 0 {
			t.Fatalf("budgeted stream delivered path %q not in the full multiset", s)
		}
		idx[s]--
	}
}

// TestRankedStreamOrderAndParity: ranked emission follows the ordering
// contract (nondecreasing cost, exactly the RankedResult paths, in rank
// order) and a sink stop keeps the delivered prefix optimal.
func TestRankedStreamOrderAndParity(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	start := emptyStart(cat, term.TwoSeason.MustTerm(2013, term.Fall))
	end := brandeis.EndTerm()
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)

	var streamed []RankedPath
	sink := SinkFunc(func(ev Event) error {
		if ev.Kind != KindPath {
			return nil
		}
		streamed = append(streamed, RankedPath{Cost: ev.PathCost, Value: ev.PathValue})
		return nil
	})
	res, err := RankedStream(context.Background(), cat, start, end, goal, rank.Time{}, 5, pruners, opt, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("ranked stream found no goal paths")
	}
	if len(streamed) != len(res.Paths) {
		t.Fatalf("streamed %d paths, result has %d", len(streamed), len(res.Paths))
	}
	for i, rp := range res.Paths {
		if streamed[i].Cost != rp.Cost {
			t.Fatalf("streamed cost[%d] = %g != result %g", i, streamed[i].Cost, rp.Cost)
		}
		if i > 0 && streamed[i].Cost < streamed[i-1].Cost {
			t.Fatalf("ranked emission not in nondecreasing cost order: %g after %g", streamed[i].Cost, streamed[i-1].Cost)
		}
	}

	// Stop after the first path: the prefix is still the best path.
	var first []RankedPath
	stopSink := SinkFunc(func(ev Event) error {
		if ev.Kind != KindPath {
			return nil
		}
		first = append(first, RankedPath{Cost: ev.PathCost})
		return ErrStopEmit
	})
	sres, err := RankedStream(context.Background(), cat, start, end, goal, rank.Time{}, 5, pruners, opt, stopSink)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Stopped != StopSink {
		t.Fatalf("Stopped = %q, want %q", sres.Stopped, StopSink)
	}
	if len(first) != 1 || first[0].Cost != res.Paths[0].Cost {
		t.Fatalf("stopped ranked stream delivered %v, want the single best path (cost %g)", first, res.Paths[0].Cost)
	}
}

// TestWhatIfStreamParity: the streaming what-if delivers the same impacts
// the tree walk's CompareSelectionsCtx reports, and ErrStopEmit stops it
// cleanly. The reference is the tree walk, not the DAG sort, so a wrong
// tally the DAG stream and sort share cannot pass.
func TestWhatIfStreamParity(t *testing.T) {
	rc := newRandomCase(t, 6)
	pruners := PaperPruners(rc.cat, rc.req, rc.opt.MaxPerTerm)
	st := rc.whatIfStatus(t)
	topt := rc.opt
	topt.Substrate = SubstrateTree
	sorted, stopped, err := CompareSelectionsCtx(context.Background(), rc.cat, st, rc.end, rc.req, pruners, topt)
	if err != nil || stopped != "" {
		t.Fatalf("CompareSelectionsCtx: stopped=%q err=%v", stopped, err)
	}
	if len(sorted) < 2 {
		t.Fatalf("%d candidates, want two or more", len(sorted))
	}
	var streamed []SelectionImpact
	stopped, err = CompareSelectionsStream(context.Background(), rc.cat, st, rc.end, rc.req, pruners, rc.opt, func(im SelectionImpact) error {
		streamed = append(streamed, im)
		return nil
	})
	if err != nil || stopped != "" {
		t.Fatalf("CompareSelectionsStream: stopped=%q err=%v", stopped, err)
	}
	if len(streamed) != len(sorted) {
		t.Fatalf("streamed %d impacts, sorted run has %d", len(streamed), len(sorted))
	}
	key := func(im SelectionImpact) string {
		return fmt.Sprintf("%s:%d:%d:%d", im.Selection.Key(), im.GoalPaths, im.Paths, im.NextOptions)
	}
	want := map[string]int{}
	for _, im := range sorted {
		want[key(im)]++
	}
	for _, im := range streamed {
		if want[key(im)] == 0 {
			t.Fatalf("streamed impact %+v missing from CompareSelectionsCtx output", im)
		}
		want[key(im)]--
	}

	n := 0
	stopped, err = CompareSelectionsStream(context.Background(), rc.cat, st, rc.end, rc.req, pruners, rc.opt, func(SelectionImpact) error {
		n++
		return ErrStopEmit
	})
	if err != nil || stopped != StopSink || n != 1 {
		t.Fatalf("early-stopped what-if: n=%d stopped=%q err=%v", n, stopped, err)
	}
}

// TestSinkMiddleware exercises the composable middleware sinks.
func TestSinkMiddleware(t *testing.T) {
	cat := fig3Catalog(t)
	count := &CountingSink{}
	meter := &MeterSink{Next: count}
	res, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, Options{}, meter)
	if err != nil {
		t.Fatal(err)
	}
	if count.Paths != res.Paths || count.Edges != res.Edges {
		t.Fatalf("CountingSink paths/edges %d/%d != result %d/%d", count.Paths, count.Edges, res.Paths, res.Edges)
	}
	if meter.Paths.Load() != res.Paths {
		t.Fatalf("MeterSink paths %d != result %d", meter.Paths.Load(), res.Paths)
	}

	// PathBudgetSink stops the run after MaxPaths paths, delivering them.
	inner := &CountingSink{}
	budget := &PathBudgetSink{Next: inner, MaxPaths: 2}
	res, err = Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, Options{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopSink || inner.Paths != 2 {
		t.Fatalf("PathBudgetSink: stopped=%q delivered=%d, want %q/2", res.Stopped, inner.Paths, StopSink)
	}

	// DedupSink suppresses replayed duplicates.
	dedup := &DedupSink{Next: &CountingSink{}}
	ev := Event{Kind: KindPath, Steps: []Step{{Term: f11, Selection: bitset.FromMembers(3, 0)}}}
	for i := 0; i < 3; i++ {
		if err := dedup.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := dedup.Next.(*CountingSink).Paths; got != 1 {
		t.Fatalf("DedupSink forwarded %d duplicates, want 1", got)
	}

	// Tee fans out to both.
	a, b := &CountingSink{}, &CountingSink{}
	if _, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, Options{}, Tee(a, b)); err != nil {
		t.Fatal(err)
	}
	if a.Paths != b.Paths || a.Paths == 0 {
		t.Fatalf("Tee delivered %d/%d paths", a.Paths, b.Paths)
	}
}

// TestStreamRequiresSink: the streaming entry point refuses a nil sink.
func TestStreamRequiresSink(t *testing.T) {
	cat := fig3Catalog(t)
	if _, err := Stream(context.Background(), cat, emptyStart(cat, f11), s13, nil, nil, Options{}, nil); err == nil {
		t.Fatal("Stream accepted a nil sink")
	}
}

// BenchmarkGoalStream measures the streaming walk over the Brandeis goal
// exploration. Per-path delivery borrows the engine's spine (no copies),
// so bytes/op stays O(search depth) regardless of how many paths flow
// through the sink; contrast BenchmarkGoalMaterialize, which retains
// every node and edge and so allocates O(total paths).
func BenchmarkGoalStream(b *testing.B) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		b.Fatal(err)
	}
	start := status.New(cat, term.TwoSeason.MustTerm(2013, term.Fall), bitset.New(cat.Len()))
	end := brandeis.EndTerm()
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	var paths int64
	sink := SinkFunc(func(ev Event) error {
		if ev.Kind == KindPath {
			paths++
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths = 0
		res, err := Stream(context.Background(), cat, start, end, goal, pruners, opt, sink)
		if err != nil {
			b.Fatal(err)
		}
		if paths != res.Paths {
			b.Fatalf("streamed %d paths, tally %d", paths, res.Paths)
		}
	}
	b.ReportMetric(float64(paths), "paths/op")
}

// BenchmarkGoalMaterialize is BenchmarkGoalStream's baseline: the same
// exploration materialised, whose memory is O(total paths).
func BenchmarkGoalMaterialize(b *testing.B) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		b.Fatal(err)
	}
	start := status.New(cat, term.TwoSeason.MustTerm(2013, term.Fall), bitset.New(cat.Len()))
	end := brandeis.EndTerm()
	opt := Options{MaxPerTerm: brandeis.MaxPerTerm}
	pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Goal(cat, start, end, goal, pruners, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRankedLazyOptionsMatchEager: without a sink the ranked search
// derives option sets on pop; with one it derives them for every
// generated child. Both must return the same paths and the same effort
// tallies under every ranker, and under a path-cost threshold.
func TestRankedLazyOptionsMatchEager(t *testing.T) {
	cat := brandeis.Catalog()
	goal, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	prob := func(ci int, tm term.Term) float64 {
		if cat.OfferedIn(tm).Contains(ci) {
			return 0.9
		}
		return 0.2
	}
	weighted, err := rank.NewWeighted(rank.Component{Ranker: rank.Time{}, Weight: 10}, rank.Component{Ranker: rank.Workload{W: cat.Workloads()}, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	rankers := []rank.Ranker{rank.Time{}, rank.Workload{W: cat.Workloads()}, rank.Reliability{Prob: prob}, weighted}
	start := emptyStart(cat, brandeis.StartForSemesters(5))
	end := brandeis.EndTerm()
	for _, r := range rankers {
		for _, maxCost := range []float64{0, 5, 60} {
			opt := Options{MaxPerTerm: brandeis.MaxPerTerm, MaxPathCost: maxCost}
			pruners := PaperPruners(cat, goal, opt.MaxPerTerm)
			lazy, err := RankedCtx(context.Background(), cat, start, end, goal, r, 8, pruners, opt)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := RankedStream(context.Background(), cat, start, end, goal, r, 8, pruners, opt, SinkFunc(func(Event) error { return nil }))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s maxCost=%g", r.Name(), maxCost)
			if lazy.Nodes != eager.Nodes || lazy.Edges != eager.Edges || lazy.Popped != eager.Popped ||
				lazy.PrunedTime != eager.PrunedTime || lazy.PrunedAvail != eager.PrunedAvail {
				t.Fatalf("%s: tallies differ: lazy n%d e%d p%d pt%d pa%d, eager n%d e%d p%d pt%d pa%d", name,
					lazy.Nodes, lazy.Edges, lazy.Popped, lazy.PrunedTime, lazy.PrunedAvail,
					eager.Nodes, eager.Edges, eager.Popped, eager.PrunedTime, eager.PrunedAvail)
			}
			if len(lazy.Paths) != len(eager.Paths) {
				t.Fatalf("%s: %d paths lazily, %d eagerly", name, len(lazy.Paths), len(eager.Paths))
			}
			for i := range lazy.Paths {
				lp, ep := lazy.Paths[i], eager.Paths[i]
				ls := stepSignature(cat, rankedSteps(lazy.Graph, lp.Path))
				es := stepSignature(cat, rankedSteps(eager.Graph, ep.Path))
				if lp.Cost != ep.Cost || lp.Value != ep.Value || ls != es {
					t.Fatalf("%s path %d: lazy %g %s, eager %g %s", name, i, lp.Cost, ls, ep.Cost, es)
				}
			}
			if maxCost == 0 && len(lazy.Paths) == 0 {
				t.Fatalf("%s: no paths; the case proves nothing", name)
			}
		}
	}
}
