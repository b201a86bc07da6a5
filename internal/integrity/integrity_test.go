package integrity

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/term"
)

func spec(id, prereq string, offered ...string) catalog.CourseSpec {
	return catalog.CourseSpec{ID: id, Prereq: prereq, Offered: offered, Workload: 10}
}

func issueCodes(rep Report) string {
	codes := make([]string, len(rep.Issues))
	for i, is := range rep.Issues {
		codes[i] = is.Code
	}
	return strings.Join(codes, ",")
}

func hasIssue(rep Report, code, course string) bool {
	for _, is := range rep.Issues {
		if is.Code == code && is.Course == course {
			return true
		}
	}
	return false
}

func TestCheckSpecs(t *testing.T) {
	specs := []catalog.CourseSpec{
		spec("A 1", "", "Fall 2012"),
		spec("A 1", "", "Fall 2012"),              // duplicate ID
		spec("B 1", "A 1 and (", "Fall 2012"),     // prereq syntax
		spec("C 1", "Z 9 and Y 8", "Fall 2012"),   // dangling ×2
		spec("D 1", "D 1", "Fall 2012"),           // self-prereq
		spec("E 1", "A 1", "Octember 2012"),       // bad term
		spec("F 1", "", "Fall 2012", "Fall 2012"), // duplicate offering (warning)
		{Offered: []string{"Fall 2012"}},          // empty ID
	}
	rep := CheckSpecs(term.TwoSeason, specs)
	if rep.OK() {
		t.Fatal("defective specs passed")
	}
	if rep.Courses != len(specs) {
		t.Errorf("Courses = %d, want %d", rep.Courses, len(specs))
	}
	for _, want := range []struct{ code, course string }{
		{CodeDuplicate, "A 1"},
		{CodePrereqSyntax, "B 1"},
		{CodeDanglingPrereq, "C 1"},
		{CodeSelfPrereq, "D 1"},
		{CodeBadTerm, "E 1"},
		{CodeBadID, ""},
	} {
		if !hasIssue(rep, want.code, want.course) {
			t.Errorf("missing %s for %q in %s", want.code, want.course, issueCodes(rep))
		}
	}
	if !hasIssue(rep, CodeDuplicateOffering, "F 1") {
		t.Errorf("missing duplicate-offering warning in %s", issueCodes(rep))
	}
	if rep.Warnings != 1 {
		t.Errorf("Warnings = %d, want 1 (duplicate offering only)", rep.Warnings)
	}
	// Errors come first in the issue ordering.
	for i, is := range rep.Issues {
		if is.Severity == Warning && i < rep.Errors {
			t.Errorf("warning at position %d before all %d errors", i, rep.Errors)
		}
	}
	if got := strings.Join(Report.ErrorCourses(rep), ","); got != "A 1,B 1,C 1,D 1,E 1" {
		t.Errorf("ErrorCourses = %s", got)
	}
}

// TestQuarantineSpecsFixpoint: dropping a record can orphan references to
// it; quarantine iterates until the survivors are clean.
func TestQuarantineSpecsFixpoint(t *testing.T) {
	specs := []catalog.CourseSpec{
		spec("A 1", "", "Fall 2012"),
		spec("B 1", "X 9", "Fall 2012"), // dangling: dropped in round 1
		spec("C 1", "B 1", "Fall 2012"), // orphaned by B 1's drop: round 2
		spec("D 1", "A 1", "Fall 2012"),
	}
	clean, quarantined, issues := QuarantineSpecs(term.TwoSeason, specs)
	if got := strings.Join(quarantined, ","); got != "B 1,C 1" {
		t.Errorf("quarantined = %s, want B 1,C 1 (cascade order)", got)
	}
	var ids []string
	for _, sp := range clean {
		ids = append(ids, sp.ID)
	}
	if got := strings.Join(ids, ","); got != "A 1,D 1" {
		t.Errorf("survivors = %s", got)
	}
	if len(issues) != 2 {
		t.Errorf("issues = %v, want one per dropped record", issues)
	}
	// The contract: survivors re-check clean, and they build.
	if rep := CheckSpecs(term.TwoSeason, clean); !rep.OK() {
		t.Errorf("survivors still fail CheckSpecs: %s", rep.Summary())
	}
	if _, err := catalog.FromSpecs(term.TwoSeason, clean); err != nil {
		t.Errorf("survivors do not build: %v", err)
	}
}

func TestQuarantineSpecsCleanInput(t *testing.T) {
	specs := []catalog.CourseSpec{spec("A 1", "", "Fall 2012"), spec("B 1", "A 1", "Spring 2013")}
	clean, quarantined, issues := QuarantineSpecs(term.TwoSeason, specs)
	if len(clean) != 2 || len(quarantined) != 0 || len(issues) != 0 {
		t.Errorf("clean input disturbed: %d specs, quarantined %v, issues %v", len(clean), quarantined, issues)
	}
}

func buildCatalog(t *testing.T, specs []catalog.CourseSpec) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.FromSpecs(term.TwoSeason, specs)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCheckCycle: a mandatory-prerequisite cycle makes its members
// unreachable — error-severity issues that gate a reload.
func TestCheckCycle(t *testing.T) {
	cat := buildCatalog(t, []catalog.CourseSpec{
		spec("A 1", "B 1", "Fall 2012"),
		spec("B 1", "A 1", "Spring 2013"),
		spec("C 1", "", "Fall 2012"),
	})
	rep := Check(cat)
	if rep.OK() {
		t.Fatalf("cyclic catalog passed: %s", rep.Summary())
	}
	if !hasIssue(rep, CodeUnreachable, "A 1") || !hasIssue(rep, CodeUnreachable, "B 1") {
		t.Errorf("missing unreachable issues in %s", issueCodes(rep))
	}
	if !hasIssue(rep, CodePrereqCycle, "A 1") {
		t.Errorf("missing prereq-cycle issue in %s", issueCodes(rep))
	}
	for _, is := range rep.Issues {
		if is.Code == CodePrereqCycle {
			if is.Severity != Error {
				t.Errorf("cycle with unreachable members graded %s, want error", is.Severity)
			}
			if strings.Join(is.Related, ",") != "A 1,B 1" {
				t.Errorf("cycle members = %v", is.Related)
			}
		}
	}
}

// TestCheckCycleWithEscape: a cycle an OR-alternative can break is
// survivable — warning, not error, so the catalog still serves.
func TestCheckCycleWithEscape(t *testing.T) {
	cat := buildCatalog(t, []catalog.CourseSpec{
		spec("A 1", "B 1 or C 1", "Fall 2012", "Spring 2013"),
		spec("B 1", "A 1", "Spring 2013"),
		spec("C 1", "", "Fall 2012"),
	})
	rep := Check(cat)
	if !rep.OK() {
		t.Fatalf("escapable cycle gated the catalog: %s", rep.Summary())
	}
	found := false
	for _, is := range rep.Issues {
		if is.Code == CodePrereqCycle && is.Severity == Warning {
			found = true
		}
	}
	if !found {
		t.Errorf("missing cycle warning in %s", issueCodes(rep))
	}
}

// TestCheckNeverOffered: never-offered courses and prerequisites that
// depend on them are advisory.
func TestCheckNeverOffered(t *testing.T) {
	cat := buildCatalog(t, []catalog.CourseSpec{
		spec("A 1", ""), // never offered
		spec("B 1", "A 1", "Fall 2012"),
	})
	rep := Check(cat)
	if !rep.OK() {
		t.Fatalf("never-offered graded as error: %s", rep.Summary())
	}
	if !hasIssue(rep, CodeNeverOffered, "A 1") || !hasIssue(rep, CodePrereqNeverOffered, "B 1") {
		t.Errorf("missing never-offered issues in %s", issueCodes(rep))
	}
}

// TestCheckScheduleInfeasible: a mandatory prerequisite never offered
// before the course's last offering is flagged (warning: the student may
// carry transfer credit from before the window).
func TestCheckScheduleInfeasible(t *testing.T) {
	cat := buildCatalog(t, []catalog.CourseSpec{
		spec("P 1", "", "Fall 2013"),
		spec("C 1", "P 1", "Fall 2012"),
	})
	rep := Check(cat)
	if !rep.OK() {
		t.Fatalf("infeasible schedule graded as error: %s", rep.Summary())
	}
	if !hasIssue(rep, CodeScheduleInfeasible, "C 1") {
		t.Errorf("missing schedule-infeasible in %s", issueCodes(rep))
	}

	// The same pair with a workable ordering raises nothing.
	ok := buildCatalog(t, []catalog.CourseSpec{
		spec("P 1", "", "Fall 2012"),
		spec("C 1", "P 1", "Spring 2013"),
	})
	if rep := Check(ok); len(rep.Issues) != 0 {
		t.Errorf("feasible catalog flagged: %s", issueCodes(rep))
	}

	// An OR-alternative makes the prerequisite non-mandatory: no flag.
	alt := buildCatalog(t, []catalog.CourseSpec{
		spec("P 1", "", "Fall 2013"),
		spec("Q 1", "", "Fall 2012"),
		spec("C 1", "P 1 or Q 1", "Fall 2012", "Spring 2013"),
	})
	if rep := Check(alt); hasIssue(rep, CodeScheduleInfeasible, "C 1") {
		t.Errorf("non-mandatory prerequisite flagged: %s", issueCodes(rep))
	}
}

func TestReportSummaryAndJSONShape(t *testing.T) {
	rep := Report{Courses: 38, Errors: 2, Warnings: 1}
	if got := rep.Summary(); got != "2 errors, 1 warnings in 38 courses" {
		t.Errorf("Summary = %q", got)
	}
	if rep.OK() {
		t.Error("report with errors is OK")
	}
	if !(Report{Courses: 3}).OK() {
		t.Error("clean report not OK")
	}
}

// TestCheckCourses: the typed gate reports what Build would reject —
// empty and duplicate IDs, dangling and self references, offerings off
// the calendar — and warns on a term offered twice.
func TestCheckCourses(t *testing.T) {
	f12 := term.TwoSeason.MustTerm(2012, term.Fall)
	summer := term.ThreeSeason.MustTerm(2012, term.Summer)
	courses := []catalog.Course{
		{ID: "A 1", Offered: []term.Term{f12}},
		{ID: "A 1"},
		{ID: "C 1", Prereq: expr.MustParse("Z 9 and A 1")},
		{ID: "D 1", Prereq: expr.MustParse("D 1 or A 1")},
		{ID: "E 1", Offered: []term.Term{summer}},
		{ID: "F 1", Prereq: expr.True{}, Offered: []term.Term{f12, f12.Next(), f12}},
		{},
	}
	rep := CheckCourses(term.TwoSeason, courses)
	if got, want := issueCodes(rep), "bad-course-id,duplicate-course,dangling-prereq,self-prereq,bad-term,duplicate-offering"; got != want {
		t.Errorf("issues = %s, want %s", got, want)
	}
	if got := strings.Join(rep.ErrorCourses(), ","); got != "A 1,C 1,D 1,E 1" {
		t.Errorf("ErrorCourses = %s", got)
	}
	for _, is := range rep.Issues {
		if is.Code == CodeDuplicateOffering && is.Detail != `offering "Fall 2012" listed more than once` {
			t.Errorf("duplicate-offering detail = %q", is.Detail)
		}
	}

	// Quarantine keeps the survivors' warnings after the errors behind
	// each drop.
	clean, quarantined, issues := QuarantineCourses(term.TwoSeason, courses)
	if len(clean) != 1 || clean[0].ID != "F 1" {
		t.Errorf("survivors = %+v, want F 1", clean)
	}
	if got := strings.Join(quarantined, ","); got != "A 1,C 1,D 1,E 1" {
		t.Errorf("quarantined = %s", got)
	}
	if last := issues[len(issues)-1]; last.Code != CodeDuplicateOffering || last.Course != "F 1" {
		t.Errorf("last issue = %+v, want F 1's duplicate-offering warning", last)
	}
}
