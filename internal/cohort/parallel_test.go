package cohort

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/term"
)

// TestPlannerMemoKeyCanonical pins the shared counters' position
// identity: permuted or duplicated spellings of the same completed set
// describe the same position, so they must be root hits on the counter
// with equal counts, while a different position is not a hit.
func TestPlannerMemoKeyCanonical(t *testing.T) {
	nav, _ := brandeis(t)
	p := sharedPlanner(nav, nav, nil)
	ctx := context.Background()
	hits := func() int64 { return p.Stats().Hits }
	first := Member{Student: "A", Completed: []string{"COSI 11A", "COSI 12B"}, Start: "Fall 2014"}
	c1, err := p.Count(ctx, first, "Fall 2015", Variant{Kind: KindScenario})
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 0 {
		t.Fatal("first count is a root hit")
	}
	variants := []Member{
		{Student: "B", Completed: []string{"COSI 12B", "COSI 11A"}, Start: "Fall 2014"},
		{Student: "C", Completed: []string{"COSI 11A", "COSI 12B", "COSI 11A"}, Start: "Fall 2014"},
	}
	for _, m := range variants {
		before := hits()
		c, err := p.Count(ctx, m, "Fall 2015", Variant{Kind: KindScenario})
		if err != nil {
			t.Fatal(err)
		}
		if hits() != before+1 {
			t.Errorf("member %s (%v) missed the counter's root for an equal position", m.Student, m.Completed)
		}
		if c.GoalPaths != c1.GoalPaths {
			t.Errorf("member %s: %d paths, want %d", m.Student, c.GoalPaths, c1.GoalPaths)
		}
	}
	// Same identity on the multi-deadline counter.
	h1, err := p.CountHorizons(ctx, first, "Fall 2015", 2, Variant{Kind: KindScenario})
	if err != nil {
		t.Fatal(err)
	}
	before := hits()
	hc, err := p.CountHorizons(ctx, variants[0], "Fall 2015", 2, Variant{Kind: KindScenario})
	if err != nil {
		t.Fatal(err)
	}
	if hits() != before+1 {
		t.Error("permuted completed set missed the multi-deadline counter's root")
	}
	if !reflect.DeepEqual(hc.GoalPaths, h1.GoalPaths) {
		t.Errorf("permuted completed set: %v paths, want %v", hc.GoalPaths, h1.GoalPaths)
	}
	// Different positions must NOT collapse onto one entry.
	before = hits()
	if _, err := p.Count(ctx, Member{Student: "D", Completed: []string{"COSI 11A"}, Start: "Fall 2014"}, "Fall 2015", Variant{Kind: KindScenario}); err != nil {
		t.Fatal(err)
	}
	if hits() != before {
		t.Error("a different position hit the counter's root")
	}
}

// probePlanner scripts the delay probe's failure modes on top of fixed
// count results.
type probePlanner struct {
	horizons func() (HorizonCounts, error)
	probes   int
}

func (p *probePlanner) Count(context.Context, Member, string, Variant) (CountResult, error) {
	return CountResult{GoalPaths: 0}, nil
}

func (p *probePlanner) CountHorizons(context.Context, Member, string, int, Variant) (HorizonCounts, error) {
	p.probes++
	return p.horizons()
}

func (p *probePlanner) Replan(context.Context, Member, string) (Replan, error) {
	return Replan{}, nil
}

// TestProbeFailureDoesNotStrand is the probe-error regression: a failed
// delay probe proves nothing about the member, so the record must carry
// the error and NOT a stranded verdict.
// It also pins the probe's cost: exactly one counting unit per stranded
// member, not one per deadline.
func TestProbeFailureDoesNotStrand(t *testing.T) {
	run := func(p *probePlanner) (MemberRecord, Summary) {
		t.Helper()
		r := Runner{Planner: p, Opts: Options{End: "Fall 2015", Horizon: 3}}
		var rec MemberRecord
		sum, err := r.Run(context.Background(), []Member{{Student: "S1", Start: "Fall 2013"}},
			func(mr MemberRecord) error { rec = mr; return nil })
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rec, sum
	}

	failing := &probePlanner{horizons: func() (HorizonCounts, error) {
		return HorizonCounts{}, errors.New("probe shed by admission")
	}}
	rec, sum := run(failing)
	if rec.Stranded || sum.Stranded != 0 {
		t.Errorf("failed probe stranded the member: %+v", rec)
	}
	if rec.Error == "" || sum.Errors != 1 {
		t.Errorf("failed probe left no error: %+v / %+v", rec, sum)
	}
	if failing.probes != 1 {
		t.Errorf("probe issued %d multi-deadline units, want 1", failing.probes)
	}

	stranded := &probePlanner{horizons: func() (HorizonCounts, error) {
		return HorizonCounts{GoalPaths: []int64{0, 0, 0, 0}}, nil
	}}
	rec, sum = run(stranded)
	if !rec.Stranded || sum.Stranded != 1 {
		t.Errorf("complete all-zero probe did not strand: %+v", rec)
	}

	delayed := &probePlanner{horizons: func() (HorizonCounts, error) {
		return HorizonCounts{GoalPaths: []int64{0, 0, 5, 9}}, nil
	}}
	rec, _ = run(delayed)
	if rec.Stranded || rec.Delay != 2 {
		t.Errorf("delay = %d stranded = %v, want 2/false", rec.Delay, rec.Stranded)
	}
}

// refPlanner is the per-unit reference the shared planner is held to:
// every unit is one façade call on the variant's navigator
// (GoalPathsCountCtx, GoalPathsCountHorizonsCtx or CompareSelectionsCtx),
// and nothing is memoised.
type refPlanner struct {
	base, scen *coursenav.Navigator
	makeGoal   func(*coursenav.Navigator) (coursenav.Goal, error)
	maxPerTerm int
}

func (p *refPlanner) goal(v Variant) (*coursenav.Navigator, coursenav.Goal, error) {
	nav := p.scen
	switch v.Kind {
	case KindScenario:
	case KindBase:
		nav = p.base
	default:
		return nil, coursenav.Goal{}, fmt.Errorf("reference planner: no variant %+v", v)
	}
	g, err := p.makeGoal(nav)
	return nav, g, err
}

func (p *refPlanner) query(m Member, end string) coursenav.Query {
	return coursenav.Query{Completed: m.Completed, Start: m.Start, End: end, MaxPerTerm: p.maxPerTerm}
}

func (p *refPlanner) Count(ctx context.Context, m Member, end string, v Variant) (CountResult, error) {
	nav, g, err := p.goal(v)
	if err != nil {
		return CountResult{}, err
	}
	sum, err := nav.GoalPathsCountCtx(ctx, p.query(m, end), g)
	if err == nil && sum.Stopped != "" {
		err = fmt.Errorf("reference count stopped: %s", sum.Stopped)
	}
	return CountResult{GoalPaths: sum.GoalPaths}, err
}

func (p *refPlanner) CountHorizons(ctx context.Context, m Member, end string, horizon int, v Variant) (HorizonCounts, error) {
	nav, g, err := p.goal(v)
	if err != nil {
		return HorizonCounts{}, err
	}
	gp, sum, err := nav.GoalPathsCountHorizonsCtx(ctx, p.query(m, end), g, horizon)
	if err == nil && sum.Stopped != "" {
		err = fmt.Errorf("reference count stopped: %s", sum.Stopped)
	}
	return HorizonCounts{GoalPaths: gp}, err
}

func (p *refPlanner) Replan(ctx context.Context, m Member, end string) (Replan, error) {
	_, g, err := p.goal(Variant{Kind: KindScenario})
	if err != nil {
		return Replan{}, err
	}
	impacts, stopped, err := p.scen.CompareSelectionsCtx(ctx, p.query(m, end), g)
	if err != nil {
		return Replan{}, err
	}
	body, err := json.Marshal(struct {
		Selections []coursenav.SelectionImpact `json:"selections"`
		Stopped    string                      `json:"stopped,omitempty"`
	}{impacts, stopped})
	return Replan{Body: body}, err
}

// testCohort synthesizes a deterministic mixed cohort (on-time, delayed
// and stranded members) against a scenario cancelling COSI 21A for two
// semesters, with the per-unit reference and a shared planner over it.
func testCohort(t *testing.T, n int) (*refPlanner, *SharedPlanner, []Member) {
	t.Helper()
	nav, major := brandeis(t)
	sc := Scenario{Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014", "Fall 2014"}}}}
	sc.Canonicalize(nav.CanonicalCourse)
	scenCat, err := sc.Apply(nav.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	scenNav := coursenav.NewFromCatalog(scenCat)
	start, _ := term.Parse(term.TwoSeason, "Fall 2013")
	end, _ := term.Parse(term.TwoSeason, "Fall 2015")
	members, err := Synthesize(nav.Catalog(), major.Inner(), start, end, 3, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sp := sharedPlanner(nav, scenNav, nil)
	ref := &refPlanner{base: nav, scen: scenNav, makeGoal: sp.MakeGoal, maxPerTerm: sp.Query.MaxPerTerm}
	return ref, sp, members
}

// runNDJSON drives a runner and renders the exact NDJSON a server
// stream would carry: one member record per line plus the summary.
func runNDJSON(t *testing.T, r *Runner, members []Member) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sum, err := r.Run(context.Background(), members, func(rec MemberRecord) error {
		return enc.Encode(rec)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSerialByteIdentical is the parallel-pipeline
// property: at workers=8 the NDJSON stream — records in member order
// AND the trailing summary — is byte-identical to the serial run's.
// The shared-substrate planner keeps even the coalescing tallies
// order-independent, so the whole stream is comparable.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	_, spSerial, members := testCohort(t, 24)
	_, spParallel, _ := testCohort(t, 24)
	opts := Options{End: "Fall 2015", Horizon: 2, Baseline: true, Detail: true}

	serialOpts := opts
	serialOpts.Workers = 1
	serial := runNDJSON(t, &Runner{Planner: spSerial, Opts: serialOpts}, members)

	parOpts := opts
	parOpts.Workers = 8
	parallel := runNDJSON(t, &Runner{Planner: spParallel, Opts: parOpts}, members)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel stream diverged from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestSharedPlannerMatchesPerUnitRuns is the substrate-equivalence
// property: member records from the shared-substrate planner are
// byte-identical to the per-unit reference's, one façade call a unit
// (tallies, delays, strandings and replan bodies all agree); only the
// unit-reuse accounting in the summary may differ between planners.
func TestSharedPlannerMatchesPerUnitRuns(t *testing.T) {
	ref, sp, members := testCohort(t, 16)
	opts := Options{End: "Fall 2015", Horizon: 2, Baseline: true, Detail: true}

	collect := func(p Planner) ([]MemberRecord, Summary) {
		r := Runner{Planner: p, Opts: opts}
		var recs []MemberRecord
		sum, err := r.Run(context.Background(), members, func(rec MemberRecord) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return recs, sum
	}
	nRecs, nSum := collect(ref)
	sRecs, sSum := collect(sp)
	if len(nRecs) != len(sRecs) {
		t.Fatalf("record counts differ: %d vs %d", len(nRecs), len(sRecs))
	}
	for i := range nRecs {
		nb, _ := json.Marshal(nRecs[i])
		sb, _ := json.Marshal(sRecs[i])
		if !bytes.Equal(nb, sb) {
			t.Errorf("member %d diverged:\nper-unit: %s\nshared:   %s", i, nb, sb)
		}
	}
	if nSum.Units != sSum.Units || nSum.Members != sSum.Members ||
		nSum.Stranded != sSum.Stranded || nSum.Delayed != sSum.Delayed ||
		nSum.Errors != sSum.Errors || nSum.Affected != sSum.Affected {
		t.Errorf("summaries diverged: %+v vs %+v", nSum, sSum)
	}
	if st := sp.Stats(); st.Builds == 0 || st.Hits+st.DPReused == 0 {
		t.Errorf("shared substrate saw no reuse across %d members: %+v", len(members), st)
	}
}

// TestSharedPlannerOneGoalPerVariant: a job builds each catalog
// variant's goal once, however many counters, probes and replans use it
// and whichever asks first. Over a baseline, detail and sampled run —
// with a request for the base goal before it, as the server's member
// synthesis makes, and replans through ReplanUnit — MakeGoal runs once
// per variant, serially and in parallel.
func TestSharedPlannerOneGoalPerVariant(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, sp, members := testCohort(t, 24)
		sc := Scenario{Samples: 2, Seed: 3, ReleasedThrough: "Fall 2013"}
		cats, err := sc.SampleSchedules(sp.Scenario.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cats {
			sp.Samples = append(sp.Samples, coursenav.NewFromCatalog(c))
		}
		var mu sync.Mutex
		built := map[*coursenav.Navigator]int{}
		var handed []coursenav.Goal
		makeGoal := sp.MakeGoal
		sp.MakeGoal = func(nav *coursenav.Navigator) (coursenav.Goal, error) {
			mu.Lock()
			built[nav]++
			mu.Unlock()
			return makeGoal(nav)
		}
		sp.ReplanUnit = func(_ context.Context, _ Member, _ string, goal coursenav.Goal) (Replan, error) {
			mu.Lock()
			handed = append(handed, goal)
			mu.Unlock()
			return Replan{Body: []byte(`{"selections":[]}`)}, nil
		}
		if _, err := sp.Goal(Variant{Kind: KindBase}); err != nil {
			t.Fatal(err)
		}
		r := Runner{Planner: sp, Opts: Options{End: "Fall 2015", Horizon: 2, Baseline: true, Detail: true, Samples: len(cats), Workers: workers}}
		sum, err := r.Run(context.Background(), members, func(MemberRecord) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if sum.Errors != 0 || sum.Delayed+sum.Stranded == 0 || len(handed) == 0 {
			t.Fatalf("workers=%d: run did not reach every kind of unit: %+v, %d replans", workers, sum, len(handed))
		}
		variants := []*coursenav.Navigator{sp.Base, sp.Scenario, sp.Samples[0], sp.Samples[1]}
		if len(built) != len(variants) {
			t.Errorf("workers=%d: MakeGoal ran for %d catalogs, want the %d variants", workers, len(built), len(variants))
		}
		for i, nav := range variants {
			if built[nav] != 1 {
				t.Errorf("workers=%d: variant %d's goal built %d times, want 1", workers, i, built[nav])
			}
		}
		scen, err := sp.Goal(Variant{Kind: KindScenario})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range handed {
			if g.Inner() != scen.Inner() {
				t.Fatalf("workers=%d: ReplanUnit was handed a goal other than the scenario's cached one", workers)
			}
		}
	}
}

// TestAdmitPoolRefusal: when every extra-worker probe is refused the
// run falls back to the serial pipeline (stopping at the first refusal)
// and still completes.
func TestAdmitPoolRefusal(t *testing.T) {
	_, sp, members := testCohort(t, 6)
	probes := 0
	r := Runner{
		Planner: sp,
		Opts:    Options{End: "Fall 2015", Workers: 8},
		AdmitWorker: func(context.Context) (func(), bool) {
			probes++
			return nil, false
		},
	}
	n := 0
	sum, err := r.Run(context.Background(), members, func(MemberRecord) error { n++; return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != len(members) || sum.Members != len(members) {
		t.Fatalf("emitted %d of %d members", n, len(members))
	}
	if probes != 1 {
		t.Errorf("admit probes = %d, want 1 (stop at first refusal)", probes)
	}
}
