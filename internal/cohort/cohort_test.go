package cohort

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/term"
	"repro/internal/transcript"
)

func brandeis(t *testing.T) (*coursenav.Navigator, coursenav.Goal) {
	t.Helper()
	nav, major := coursenav.Brandeis()
	return nav, major
}

func TestScenarioApplyCancelAdd(t *testing.T) {
	nav, _ := brandeis(t)
	cat := nav.Catalog()
	sc := Scenario{
		Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}},
		// COSI 29A is a Fall-only course in the embedded catalog.
		Add: []Change{{Course: "COSI 29A", Terms: []string{"Spring 2014"}}},
	}
	sc.Canonicalize(nav.CanonicalCourse)
	out, err := sc.Apply(cat)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if out == cat {
		t.Fatal("Apply returned the input catalog for a non-empty scenario")
	}
	delta := coursenav.NewFromCatalog(out)
	c, ok := delta.Course("COSI 21A")
	if !ok {
		t.Fatal("course lost by scenario application")
	}
	if offered := strings.Join(c.Offered, ","); strings.Contains(offered, "Spring 2014") {
		t.Fatalf("cancelled offering survived: %s", offered)
	}
	c, _ = delta.Course("COSI 29A")
	if offered := strings.Join(c.Offered, ","); !strings.Contains(offered, "Spring 2014") {
		t.Fatalf("added offering missing: %s", offered)
	}
	// Untouched courses share terms with the source catalog.
	if n, m := cat.Len(), out.Len(); n != m {
		t.Fatalf("course count changed: %d != %d", n, m)
	}
}

func TestScenarioApplyEmptyReturnsSameCatalog(t *testing.T) {
	nav, _ := brandeis(t)
	var sc Scenario
	out, err := sc.Apply(nav.Catalog())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if out != nav.Catalog() {
		t.Fatal("empty scenario must return the catalog unchanged")
	}
}

func TestScenarioApplyErrors(t *testing.T) {
	nav, _ := brandeis(t)
	cat := nav.Catalog()
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"unknown course", Scenario{Cancel: []Change{{Course: "NOPE 1", Terms: []string{"Fall 2013"}}}}},
		{"bad term", Scenario{Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Smarch 2013"}}}}},
		{"cancel not offered", Scenario{Cancel: []Change{{Course: "COSI 29A", Terms: []string{"Spring 2014"}}}}},
		{"add already offered", Scenario{Add: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}}}},
		{"cancel and add same term", Scenario{
			Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}},
			Add:    []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}},
		}},
	}
	for _, tc := range cases {
		if _, err := tc.sc.Apply(cat); err == nil {
			t.Errorf("%s: Apply succeeded, want error", tc.name)
		}
	}
}

func TestScenarioDigestIgnoresSampling(t *testing.T) {
	a := Scenario{Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}}}
	b := a
	b.Samples, b.Seed, b.HistoryYears = 7, 99, 5
	if a.Digest() != b.Digest() {
		t.Fatal("digest must cover only the catalog delta, not sampling knobs")
	}
	c := Scenario{Cancel: []Change{{Course: "COSI 29A", Terms: []string{"Spring 2014"}}}}
	if a.Digest() == c.Digest() {
		t.Fatal("different deltas share a digest")
	}
	if a.SampleKey(0) == b.SampleKey(0) {
		t.Fatal("SampleKey must fold the sampling seed in")
	}
}

func TestScenarioCanonicalizeSortsAndResolves(t *testing.T) {
	nav, _ := brandeis(t)
	a := Scenario{Cancel: []Change{
		{Course: "COSI 29A", Terms: []string{"Spring 2014"}},
		{Course: "cosi 21a", Terms: []string{"Spring 2014", "Spring 2014", "Fall 2013"}},
	}}
	b := Scenario{Cancel: []Change{
		{Course: "COSI 21A", Terms: []string{"Fall 2013", "Spring 2014"}},
		{Course: "COSI 29A", Terms: []string{"Spring 2014"}},
	}}
	a.Canonicalize(nav.CanonicalCourse)
	b.Canonicalize(nav.CanonicalCourse)
	if a.Digest() != b.Digest() {
		t.Fatalf("equivalent scenarios digest differently: %+v vs %+v", a, b)
	}
}

func TestSampleSchedulesDeterministic(t *testing.T) {
	nav, _ := brandeis(t)
	sc := Scenario{Samples: 3, Seed: 42, ReleasedThrough: "Fall 2013"}
	one, err := sc.SampleSchedules(nav.Catalog())
	if err != nil {
		t.Fatalf("SampleSchedules: %v", err)
	}
	two, err := sc.SampleSchedules(nav.Catalog())
	if err != nil {
		t.Fatalf("SampleSchedules: %v", err)
	}
	if len(one) != 3 || len(two) != 3 {
		t.Fatalf("want 3 samples, got %d and %d", len(one), len(two))
	}
	for i := range one {
		a := coursenav.NewFromCatalog(one[i])
		b := coursenav.NewFromCatalog(two[i])
		for _, c := range a.Courses() {
			d, ok := b.Course(c.ID)
			if !ok || !reflect.DeepEqual(c.Offered, d.Offered) {
				t.Fatalf("sample %d: equal seeds produced different schedules for %s", i, c.ID)
			}
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	nav, major := brandeis(t)
	cal := nav.Catalog().Calendar()
	start, _ := term.Parse(cal, "Fall 2013")
	end, _ := term.Parse(cal, "Fall 2015")
	gen := func(seed int64) []Member {
		ms, err := Synthesize(nav.Catalog(), major.Inner(), start, end, 3, 6, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		return ms
	}
	if a, b := gen(5), gen(5); !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds must synthesize identical cohorts")
	}
	if a, b := gen(5), gen(6); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds synthesized identical cohorts (suspicious)")
	}
	for i, m := range gen(7) {
		if m.Start == "" {
			t.Fatalf("member %d has no start", i)
		}
		if m.Student == "" {
			t.Fatalf("member %d has no student ID", i)
		}
	}
}

// TestSynthesizeGoalAlreadyMet: a goal that holds with nothing completed
// (here an empty course set) makes every walk empty; Synthesize reports
// it instead of panicking while truncating the empty transcripts.
func TestSynthesizeGoalAlreadyMet(t *testing.T) {
	nav, _ := brandeis(t)
	empty, err := nav.GoalCourses()
	if err != nil {
		t.Fatal(err)
	}
	cal := nav.Catalog().Calendar()
	start, _ := term.Parse(cal, "Fall 2013")
	end, _ := term.Parse(cal, "Fall 2015")
	ms, err := Synthesize(nav.Catalog(), empty.Inner(), start, end, 3, 5, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "holds before any course is taken") {
		t.Fatalf("Synthesize = %d members, %v; want a goal-already-met error", len(ms), err)
	}
}

func TestFromTranscripts(t *testing.T) {
	nav, _ := brandeis(t)
	cal := nav.Catalog().Calendar()
	const text = `student: S001
Fall 2013: COSI 11A
Spring 2014: COSI 12B
`
	trs, err := transcript.Parse(strings.NewReader(text), cal)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	members, err := FromTranscripts(nav.Catalog(), trs, 3)
	if err != nil {
		t.Fatalf("FromTranscripts: %v", err)
	}
	if len(members) != 1 {
		t.Fatalf("want 1 member, got %d", len(members))
	}
	m := members[0]
	if m.Student != "S001" {
		t.Errorf("student = %q", m.Student)
	}
	if want := []string{"COSI 11A", "COSI 12B"}; !reflect.DeepEqual(m.Completed, want) {
		t.Errorf("completed = %v, want %v", m.Completed, want)
	}
	if m.Start != "Fall 2014" {
		t.Errorf("start = %q, want Fall 2014 (semester after the last entry)", m.Start)
	}
}

func sharedPlanner(nav *coursenav.Navigator, scen *coursenav.Navigator, samples []*coursenav.Navigator) *SharedPlanner {
	return &SharedPlanner{
		Base:     nav,
		Scenario: scen,
		Samples:  samples,
		MakeGoal: func(n *coursenav.Navigator) (coursenav.Goal, error) { return n.BrandeisMajor() },
		Query:    coursenav.Query{MaxPerTerm: 3},
	}
}

func TestRunnerBaselineDelayAndMemo(t *testing.T) {
	nav, _ := brandeis(t)
	// Cancel COSI 21A in Spring 2014 only: members needing it that term
	// are delayed, not stranded (it returns later).
	sc := Scenario{Cancel: []Change{{Course: "COSI 21A", Terms: []string{"Spring 2014"}}}}
	sc.Canonicalize(nav.CanonicalCourse)
	scenCat, err := sc.Apply(nav.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	member := Member{Student: "S1", Completed: []string{"COSI 11A", "COSI 12B"}, Start: "Spring 2014"}
	// Duplicate positions must be root hits on the shared counters.
	members := []Member{member, member, {Student: "S3", Completed: member.Completed, Start: member.Start}}
	p := sharedPlanner(nav, coursenav.NewFromCatalog(scenCat), nil)
	r := Runner{
		Planner: p,
		Opts:    Options{End: "Fall 2015", Baseline: true},
	}
	var recs []MemberRecord
	sum, err := r.Run(context.Background(), members, func(rec MemberRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Members != 3 || len(recs) != 3 {
		t.Fatalf("members = %d, records = %d", sum.Members, len(recs))
	}
	if sum.Errors != 0 {
		t.Fatalf("errors = %d: %+v", sum.Errors, recs)
	}
	if hits := p.Stats().Hits; hits != sum.Units*2/3 {
		t.Fatalf("%d root hits over %d units, want every unit of the two repeated members", hits, sum.Units)
	}
	for i, rec := range recs {
		if rec.Baseline == nil {
			t.Fatalf("record %d missing baseline", i)
		}
		if !reflect.DeepEqual(rec, recs[0]) {
			r0, ri := recs[0], rec
			r0.Student, ri.Student = "", ""
			if !reflect.DeepEqual(r0, ri) {
				t.Fatalf("identical positions diverged: %+v vs %+v", recs[0], rec)
			}
		}
	}
}

func TestRunnerStranded(t *testing.T) {
	nav, _ := brandeis(t)
	// Cancel every offering of a core course: no path exists at any
	// horizon, so every member is stranded.
	sc := Scenario{Cancel: []Change{{Course: "COSI 21A"}}}
	sc.Canonicalize(nav.CanonicalCourse)
	scenCat, err := sc.Apply(nav.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{
		Planner: sharedPlanner(nav, coursenav.NewFromCatalog(scenCat), nil),
		Opts:    Options{End: "Fall 2015", Horizon: 2},
	}
	sum, err := r.Run(context.Background(), []Member{{Student: "S1", Start: "Fall 2013"}}, func(MemberRecord) error { return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Stranded != 1 || sum.Affected != 1 {
		t.Fatalf("stranded = %d affected = %d, want 1/1", sum.Stranded, sum.Affected)
	}
}

func TestRunnerCancellationAborts(t *testing.T) {
	nav, _ := brandeis(t)
	ctx, cancel := context.WithCancel(context.Background())
	members := make([]Member, 50)
	for i := range members {
		members[i] = Member{Student: "S", Start: "Fall 2013"}
	}
	r := Runner{
		Planner: sharedPlanner(nav, nav, nil),
		Opts:    Options{End: "Fall 2015"},
	}
	emitted := 0
	_, err := r.Run(ctx, members, func(MemberRecord) error {
		emitted++
		if emitted == 2 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if emitted >= len(members) {
		t.Fatal("cancellation did not stop the run")
	}
}

func TestRunnerDetailReplanBody(t *testing.T) {
	nav, _ := brandeis(t)
	r := Runner{
		Planner: sharedPlanner(nav, nav, nil),
		Opts:    Options{End: "Fall 2015", Detail: true},
	}
	var rec MemberRecord
	_, err := r.Run(context.Background(),
		[]Member{{Student: "S1", Completed: []string{"COSI 11A", "COSI 12B", "COSI 21A"}, Start: "Fall 2014"}},
		func(mr MemberRecord) error { rec = mr; return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rec.Replan) == 0 {
		t.Fatal("detail run produced no replan body")
	}
	var body struct {
		Selections []json.RawMessage `json:"selections"`
	}
	if err := json.Unmarshal(rec.Replan, &body); err != nil {
		t.Fatalf("replan body is not the whatif shape: %v", err)
	}
	if len(body.Selections) == 0 {
		t.Fatal("replan body has no selections")
	}
}
