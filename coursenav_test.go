package coursenav

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/term"
)

func TestBrandeisBasics(t *testing.T) {
	nav, major := Brandeis()
	if nav.NumCourses() != 38 {
		t.Fatalf("NumCourses = %d", nav.NumCourses())
	}
	if !strings.Contains(major.String(), "core") {
		t.Errorf("major = %q", major)
	}
	unreachable, neverOffered := nav.Lint()
	if len(unreachable) != 0 || len(neverOffered) != 0 {
		t.Errorf("lint: %v %v", unreachable, neverOffered)
	}
	c, ok := nav.Course("COSI 21A")
	if !ok || c.Prereq != "COSI 11A" || c.Title == "" {
		t.Errorf("Course = %+v ok=%v", c, ok)
	}
	if _, ok := nav.Course("NOPE 1"); ok {
		t.Error("unknown course found")
	}
	if len(nav.Courses()) != 38 {
		t.Error("Courses length")
	}
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	nav, _ := Brandeis()
	var buf bytes.Buffer
	if err := nav.WriteCatalogJSON(&buf); err != nil {
		t.Fatal(err)
	}
	nav2, err := NewFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nav2.NumCourses() != 38 {
		t.Errorf("round-trip NumCourses = %d", nav2.NumCourses())
	}
	if _, err := NewFromJSON(strings.NewReader("junk")); err == nil {
		t.Error("junk JSON accepted")
	}
}

func TestNewFromRegistrarDump(t *testing.T) {
	dump := `
course: COSI 11A
title: Programming
description: Intro. Usually offered every fall.
workload: 9

course: COSI 21A
title: Data Structures
description: Trees. Prerequisite: COSI 11a. Usually offered every spring.
workload: 12
`
	schedule := "COSI 21A | Spring 2013\n"
	nav, err := NewFromRegistrarDump(strings.NewReader(dump), strings.NewReader(schedule), "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := nav.Course("COSI 21A")
	if len(c.Offered) != 1 || c.Offered[0] != "Spring 2013" {
		t.Errorf("schedule records not authoritative: %v", c.Offered)
	}
	// Without a schedule file, the phrase expansion applies.
	nav2, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Fall 2012", "Fall 2014")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := nav2.Course("COSI 21A")
	if len(c2.Offered) != 2 { // springs '13 and '14
		t.Errorf("phrase offerings = %v", c2.Offered)
	}
	// Error paths.
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Winter 2012", "Fall 2014"); err == nil {
		t.Error("bad first term accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), nil, "Fall 2012", "nope"); err == nil {
		t.Error("bad last term accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader("garbage: x"), nil, "Fall 2012", "Fall 2014"); err == nil {
		t.Error("garbage dump accepted")
	}
	if _, err := NewFromRegistrarDump(strings.NewReader(dump), strings.NewReader("NOPE|Fall 2013"), "Fall 2012", "Fall 2014"); err == nil {
		t.Error("bad schedule accepted")
	}
}

func TestGoalConstructors(t *testing.T) {
	nav, _ := Brandeis()
	if _, err := nav.GoalCourses("COSI 11A", "COSI 21A"); err != nil {
		t.Errorf("GoalCourses: %v", err)
	}
	if _, err := nav.GoalCourses("NOPE"); err == nil {
		t.Error("unknown course accepted")
	}
	if _, err := nav.GoalExpr("COSI 11A and COSI 12B"); err != nil {
		t.Errorf("GoalExpr: %v", err)
	}
	if _, err := nav.GoalExpr("((("); err == nil {
		t.Error("bad expr accepted")
	}
	if _, err := nav.GoalDegree(DegreeGroup{Name: "g", Count: 1, Courses: []string{"COSI 11A"}}); err != nil {
		t.Errorf("GoalDegree: %v", err)
	}
	if _, err := nav.GoalDegree(); err == nil {
		t.Error("empty degree accepted")
	}
	if (Goal{}).String() != "none" {
		t.Error("zero Goal String")
	}
}

func TestDeadlineEndToEnd(t *testing.T) {
	nav, _ := Brandeis()
	q := Query{Start: "Spring 2014", End: "Fall 2015", MaxPerTerm: 2}
	g, sum, err := nav.Deadline(q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths == 0 || sum.Nodes == 0 {
		t.Errorf("summary = %+v", sum)
	}
	st := g.Stats()
	if int64(st.Nodes) != sum.Nodes || st.Paths != sum.Paths {
		t.Errorf("graph stats %+v disagree with summary %+v", st, sum)
	}
	// Counting mode agrees.
	sum2, err := nav.DeadlineCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Paths != sum.Paths {
		t.Errorf("count %d != materialise %d", sum2.Paths, sum.Paths)
	}
	// Renderers produce output.
	var dot, tree, js bytes.Buffer
	if err := g.WriteDOT(&dot); err != nil || !strings.Contains(dot.String(), "digraph") {
		t.Error("DOT rendering failed")
	}
	if err := g.WriteTree(&tree, 2); err != nil || tree.Len() == 0 {
		t.Error("tree rendering failed")
	}
	if err := g.WriteJSON(&js, 10); err != nil || !strings.Contains(js.String(), "\"nodes\"") {
		t.Error("JSON rendering failed")
	}
}

func TestQueryErrors(t *testing.T) {
	nav, major := Brandeis()
	bad := []Query{
		{Start: "nope", End: "Fall 2015"},
		{Start: "Fall 2013", End: "nope"},
		{Start: "Fall 2013", End: "Fall 2015", Completed: []string{"NOPE"}},
		{Start: "Fall 2015", End: "Fall 2013"},
	}
	for i, q := range bad {
		if _, _, err := nav.Deadline(q); err == nil {
			t.Errorf("bad query %d accepted by Deadline", i)
		}
		if _, err := nav.GoalPathsCount(q, major); err == nil {
			t.Errorf("bad query %d accepted by GoalPathsCount", i)
		}
	}
}

func TestGoalPathsWithCompletedCourses(t *testing.T) {
	nav, _ := Brandeis()
	// A student two semesters in, aiming to finish the core.
	goal, err := nav.GoalCourses("COSI 11A", "COSI 29A", "COSI 12B", "COSI 21A", "COSI 21B", "COSI 30A", "COSI 31A")
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Completed:  []string{"COSI 11A", "COSI 29A", "COSI 2A"},
		Start:      "Spring 2014",
		End:        "Fall 2015",
		MaxPerTerm: 3,
	}
	g, sum, err := nav.GoalPaths(q, goal)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths == 0 {
		t.Fatal("no goal paths for a feasible core-completion query")
	}
	paths := g.Paths(true, 5)
	if len(paths) == 0 || len(paths) > 5 {
		t.Fatalf("Paths(limit 5) = %d", len(paths))
	}
	// Every reported path elects only core courses the student lacks.
	for _, p := range paths {
		if len(p.Semesters) == 0 {
			t.Error("empty path")
		}
		if !strings.Contains(p.String(), "{") {
			t.Errorf("String = %q", p.String())
		}
	}
	// Pruning accounting flows through.
	qNoPrune := q
	qNoPrune.NoPruning = true
	_, sum2, err := nav.GoalPaths(qNoPrune, goal)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.PrunedTime != 0 || sum2.PrunedAvail != 0 {
		t.Error("NoPruning still pruned")
	}
	if sum2.GoalPaths != sum.GoalPaths {
		t.Errorf("pruning changed goal paths: %d vs %d (Lemma 1 violation)", sum.GoalPaths, sum2.GoalPaths)
	}
	if sum2.Nodes <= sum.Nodes {
		t.Error("pruning did not reduce generated nodes")
	}
}

func TestTopKAllRankings(t *testing.T) {
	nav, major := Brandeis()
	if err := nav.UseSyntheticHistory(4, 1); err != nil {
		t.Fatal(err)
	}
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3}
	for _, ranking := range Rankings() {
		paths, sum, err := nav.TopK(q, major, ranking, 5)
		if err != nil {
			t.Fatalf("%s: %v", ranking, err)
		}
		if len(paths) != 5 {
			t.Fatalf("%s: got %d paths", ranking, len(paths))
		}
		for i := 1; i < len(paths); i++ {
			if paths[i].Cost < paths[i-1].Cost {
				t.Errorf("%s: costs out of order", ranking)
			}
		}
		if sum.Nodes == 0 {
			t.Errorf("%s: no search effort recorded", ranking)
		}
		// Time ranking: the 4-semester window admits only 4-semester paths.
		if ranking == "time" && paths[0].Value != 4 {
			t.Errorf("time best = %g semesters, want 4", paths[0].Value)
		}
	}
	if _, _, err := nav.TopK(q, major, "magic", 5); err == nil {
		t.Error("unknown ranking accepted")
	}
	if _, _, err := nav.TopK(q, major, "time", 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTopKReliabilityWithoutHistory(t *testing.T) {
	// Without UseSyntheticHistory the estimator defaults to the published
	// schedule (probability 1), so reliability still works and all paths
	// get value 1.
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3}
	paths, _, err := nav.TopK(q, major, "reliability", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Value != 1 {
			t.Errorf("published-schedule reliability = %g, want 1", p.Value)
		}
	}
}

func TestFeasibleNow(t *testing.T) {
	nav, _ := Brandeis()
	opts, err := nav.FeasibleNow(nil, "Fall 2013")
	if err != nil {
		t.Fatal(err)
	}
	want := "COSI 11A,COSI 29A,COSI 2A"
	got := strings.Join(opts, ",")
	if got != "COSI 2A,COSI 11A,COSI 29A" {
		t.Errorf("FeasibleNow = %q (want the three intro courses, got ordering by catalog index); reference %q", got, want)
	}
	opts2, err := nav.FeasibleNow([]string{"COSI 11A"}, "Spring 2014")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(opts2, ",")
	for _, c := range []string{"COSI 12B", "COSI 21A"} {
		if !strings.Contains(joined, c) {
			t.Errorf("FeasibleNow after 11A missing %s: %v", c, opts2)
		}
	}
	if _, err := nav.FeasibleNow(nil, "nope"); err != nil {
		// expected
	} else {
		t.Error("bad term accepted")
	}
	if _, err := nav.FeasibleNow([]string{"NOPE"}, "Fall 2013"); err == nil {
		t.Error("unknown completed course accepted")
	}
}

func TestRankingsList(t *testing.T) {
	r := Rankings()
	if len(r) != 3 || r[0] != "time" {
		t.Errorf("Rankings = %v", r)
	}
}

func TestProjectBeyondRelease(t *testing.T) {
	nav, major := Brandeis()
	// Extend the schedule two semesters past Fall 2015.
	if err := nav.ProjectBeyondRelease("Fall 2016", 4, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	// Exploration may now cross the old release boundary.
	q := Query{Start: "Spring 2014", End: "Fall 2016", MaxPerTerm: 3}
	paths, _, err := nav.TopK(q, major, "reliability", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths in the projected window")
	}
	// The most reliable path must rank first and no value may exceed 1.
	for i, p := range paths {
		if p.Value <= 0 || p.Value > 1 {
			t.Errorf("path %d reliability = %g", i, p.Value)
		}
		if i > 0 && paths[i].Value > paths[i-1].Value+1e-12 {
			t.Errorf("reliability not non-increasing at %d", i)
		}
	}
	// Paths that elect projected (uncertain) offerings must be
	// distinguishable: starting late forces projected semesters, so some
	// path in a wide-enough k has value < 1.
	q2 := Query{Start: "Spring 2016", End: "Fall 2016", MaxPerTerm: 3}
	intro, err := nav.GoalCourses("COSI 12B", "COSI 21A")
	if err != nil {
		t.Fatal(err)
	}
	q2.Completed = []string{"COSI 11A"}
	paths2, _, err := nav.TopK(q2, intro, "reliability", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) == 0 {
		t.Fatal("no projected-window paths")
	}
	sawUncertain := false
	for _, p := range paths2 {
		if p.Value < 1 {
			sawUncertain = true
		}
	}
	if !sawUncertain {
		t.Error("projected offerings all carried probability 1; estimator not wired")
	}
	// Validation.
	if err := nav.ProjectBeyondRelease("nope", 4, 1, 0.6); err == nil {
		t.Error("bad horizon accepted")
	}
	if err := nav.ProjectBeyondRelease("Fall 2015", 4, 1, 0.6); err == nil {
		t.Error("horizon inside release accepted")
	}
}

func TestQueryConstraints(t *testing.T) {
	nav, major := Brandeis()
	base := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3}

	// Avoid: no path elects the avoided course, and the path set shrinks.
	withAvoid := base
	withAvoid.Avoid = []string{"COSI 2A"}
	g, sum, err := nav.GoalPaths(withAvoid, major)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Paths(true, 0) {
		if strings.Contains(p.String(), "COSI 2A") {
			t.Fatalf("avoided course on path %s", p)
		}
	}
	full, err := nav.GoalPathsCount(base, major)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths >= full.GoalPaths {
		t.Errorf("avoid did not shrink goal paths: %d vs %d", sum.GoalPaths, full.GoalPaths)
	}
	badAvoid := base
	badAvoid.Avoid = []string{"NOPE"}
	if _, _, err := nav.GoalPaths(badAvoid, major); err == nil {
		t.Error("unknown avoid course accepted")
	}

	// MaxTermWorkload: semesters stay under the ceiling.
	capped := base
	capped.MaxTermWorkload = 25
	g2, _, err := nav.GoalPaths(capped, major)
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{}
	for _, c := range nav.Courses() {
		w[c.ID] = c.Workload
	}
	for _, p := range g2.Paths(true, 10) {
		for _, sel := range p.Semesters {
			var sum float64
			for _, id := range sel.Courses {
				sum += w[id]
			}
			if sum > 25 {
				t.Fatalf("semester %s carries %.1f hours", sel.Term, sum)
			}
		}
	}

	// MinPerTerm: no 1-course semesters on any path.
	floored := base
	floored.MinPerTerm = 2
	g3, _, err := nav.Deadline(Query{Start: "Spring 2015", End: "Fall 2015", MaxPerTerm: 3, MinPerTerm: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = floored
	for _, p := range g3.Paths(false, 0) {
		for _, sel := range p.Semesters {
			if len(sel.Courses) == 1 {
				t.Fatalf("single-course semester on %s", p)
			}
		}
	}
}

func TestTopKWeightedAndThreshold(t *testing.T) {
	nav, major := Brandeis()
	q := Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3}
	paths, _, err := nav.TopKWeighted(q, major,
		[]Weight{{Ranking: "time", Weight: 100}, {Ranking: "workload", Weight: 1}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("weighted returned %d paths", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Error("weighted order broken")
		}
	}
	// Threshold: cap at the best cost; only ties remain.
	capped := q
	capped.MaxPathCost = paths[0].Cost
	paths2, _, err := nav.TopKWeighted(capped, major,
		[]Weight{{Ranking: "time", Weight: 100}, {Ranking: "workload", Weight: 1}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) == 0 {
		t.Fatal("threshold erased everything")
	}
	for _, p := range paths2 {
		if p.Cost > paths[0].Cost {
			t.Errorf("cost %g over threshold %g", p.Cost, paths[0].Cost)
		}
	}
	// Validation.
	if _, _, err := nav.TopKWeighted(q, major, nil, 5); err == nil {
		t.Error("empty weights accepted")
	}
	if _, _, err := nav.TopKWeighted(q, major, []Weight{{Ranking: "magic", Weight: 1}}, 5); err == nil {
		t.Error("unknown component accepted")
	}
	if _, _, err := nav.TopKWeighted(q, major, []Weight{{Ranking: "time", Weight: -1}}, 5); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestAuditFacade(t *testing.T) {
	nav, major := Brandeis()
	rep, err := nav.Audit([]string{"COSI 11A", "COSI 29A", "COSI 2A"}, major,
		"Fall 2014", "Fall 2015", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Error("partial transcript reported complete")
	}
	if rep.RemainingSlots != 9 {
		t.Errorf("remaining = %d, want 9", rep.RemainingSlots)
	}
	if rep.Groups[0].Filled != 2 || rep.Groups[1].Filled != 1 {
		t.Errorf("groups = %+v", rep.Groups)
	}
	// 9 slots, 2 course-taking semesters, m=3 → unreachable.
	if rep.Reachable {
		t.Error("9 slots in 2 semesters reported reachable")
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core: 2/7") {
		t.Errorf("report:\n%s", buf.String())
	}
	// Non-degree goals are rejected.
	expr, _ := nav.GoalExpr("COSI 11A")
	if _, err := nav.Audit(nil, expr, "", "", 3); err == nil {
		t.Error("expression goal accepted by Audit")
	}
	if _, err := nav.Audit([]string{"NOPE"}, major, "", "", 3); err == nil {
		t.Error("unknown completed course accepted")
	}
	if _, err := nav.Audit(nil, major, "nope", "", 3); err == nil {
		t.Error("bad now term accepted")
	}
	if _, err := nav.Audit(nil, major, "Fall 2014", "nope", 3); err == nil {
		t.Error("bad deadline accepted")
	}
}

func TestCompareSelectionsFacade(t *testing.T) {
	nav, major := Brandeis()
	impacts, err := nav.CompareSelections(Query{
		Completed:  []string{"COSI 11A", "COSI 29A"},
		Start:      "Spring 2014",
		End:        "Spring 2016",
		MaxPerTerm: 3,
	}, major)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) == 0 {
		t.Fatal("no impacts")
	}
	// The whatif example's answer: {12B, 21A, 33B} maximises goal paths.
	best := impacts[0]
	if strings.Join(best.Courses, ",") != "COSI 12B,COSI 21A,COSI 33B" {
		t.Errorf("best = %v", best.Courses)
	}
	if best.GoalPaths != 35539 {
		t.Errorf("best GoalPaths = %d, want 35539 (whatif example regression)", best.GoalPaths)
	}
	if _, err := nav.CompareSelections(Query{Start: "x", End: "y"}, major); err == nil {
		t.Error("bad query accepted")
	}
}

// wideNavigator hosts a catalog with one status of 2^62 − 1 selections:
// AA 1 and AA 2 are offered in Fall 2011 and Spring 2012, and 62 courses
// without prerequisites only in Fall 2012. From Fall 2011 to Spring 2013
// with no per-semester limit there are 3·(2^62 − 1) paths.
func wideNavigator(t *testing.T) *Navigator {
	t.Helper()
	cal := term.TwoSeason
	f11, s12, f12 := cal.MustTerm(2011, term.Fall), cal.MustTerm(2012, term.Spring), cal.MustTerm(2012, term.Fall)
	b := catalog.NewBuilder(cal).
		Add(catalog.Course{ID: "AA 1", Offered: []term.Term{f11, s12}}).
		Add(catalog.Course{ID: "AA 2", Offered: []term.Term{f11, s12}})
	for i := 0; i < 62; i++ {
		b.Add(catalog.Course{ID: fmt.Sprintf("XX %d", 100+i), Offered: []term.Term{f12}})
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return NewFromCatalog(cat)
}

// TestDeadlineCountSaturates: a path count past MaxInt64 reads MaxInt64,
// never a wrapped negative.
func TestDeadlineCountSaturates(t *testing.T) {
	sum, err := wideNavigator(t).DeadlineCount(Query{Start: "Fall 2011", End: "Spring 2013"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths != math.MaxInt64 || !sum.DAG {
		t.Errorf("paths = %d (dag %v), want MaxInt64 on the DAG", sum.Paths, sum.DAG)
	}
}
