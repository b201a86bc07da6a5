package registrar

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/term"
)

var (
	f11 = term.TwoSeason.MustTerm(2011, term.Fall)
	f13 = term.TwoSeason.MustTerm(2013, term.Fall)
)

func TestNormalizeCourseID(t *testing.T) {
	ok := map[string]string{
		"COSI 11A":  "COSI 11A",
		"cosi 11a":  "COSI 11A",
		"Cosi11a":   "COSI 11A",
		"MATH 8":    "MATH 8",
		"cosi 121b": "COSI 121B",
		" COSI 2A ": "COSI 2A",
	}
	for in, want := range ok {
		got, okk := NormalizeCourseID(in)
		if !okk || got != want {
			t.Errorf("NormalizeCourseID(%q) = %q,%v, want %q", in, got, okk, want)
		}
	}
	for _, bad := range []string{"", "11A", "COSI", "hello world", "COSI 11A and more"} {
		if got, okk := NormalizeCourseID(bad); okk {
			t.Errorf("NormalizeCourseID(%q) = %q, want failure", bad, got)
		}
	}
}

func TestParsePrereq(t *testing.T) {
	cases := map[string]string{
		"An introduction to programming. Usually offered every fall.":                        "true",
		"Advanced topics. Prerequisite: COSI 11a.":                                           "COSI 11A",
		"Prerequisites: COSI 11a and COSI 29a.":                                              "COSI 11A and COSI 29A",
		"Prerequisites: COSI 11a, COSI 29a. Usually offered every year.":                     "COSI 11A and COSI 29A",
		"Prerequisite: COSI 11a or COSI 2a, or permission of the instructor.":                "COSI 11A or COSI 2A",
		"Prerequisite: cosi 21a or equivalent. Enrollment limited.":                          "COSI 21A",
		"Prerequisites: none.":                                                               "true",
		"Prerequisite: COSI 12b and (COSI 21a or COSI 29a).":                                 "COSI 12B and (COSI 21A or COSI 29A)",
		"Covers systems topics. Prerequisites: both COSI 31a and COSI 131a. Offered rarely.": "COSI 31A and COSI 131A",
	}
	for prose, want := range cases {
		e, err := ParsePrereq(prose)
		if err != nil {
			t.Errorf("ParsePrereq(%q) error: %v", prose, err)
			continue
		}
		if got := e.String(); got != want {
			t.Errorf("ParsePrereq(%q) = %q, want %q", prose, got, want)
		}
	}
	// Unparseable prerequisite sentences surface as errors, not silence.
	if _, err := ParsePrereq("Prerequisite: a solid background in (unbalanced."); err == nil {
		t.Error("garbage prerequisite sentence accepted")
	}
}

func TestParseOfferingPhrase(t *testing.T) {
	window := func(phrase string) []string {
		offered, ok := ParseOfferingPhrase(phrase, f11, f13)
		if !ok {
			return nil
		}
		out := make([]string, len(offered))
		for i, tm := range offered {
			out[i] = tm.String()
		}
		return out
	}
	cases := map[string][]string{
		"Usually offered every semester.":    {"Fall '11", "Spring '12", "Fall '12", "Spring '13", "Fall '13"},
		"Usually offered every fall.":        {"Fall '11", "Fall '12", "Fall '13"},
		"Usually offered every year.":        {"Fall '11", "Fall '12", "Fall '13"},
		"offered every spring":               {"Spring '12", "Spring '13"},
		"Usually offered every second year.": {"Fall '11", "Fall '13"},
	}
	for phrase, want := range cases {
		got := window(phrase)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("ParseOfferingPhrase(%q) = %v, want %v", phrase, got, want)
		}
	}
	if _, ok := ParseOfferingPhrase("no schedule information here", f11, f13); ok {
		t.Error("phrase recognised in unrelated prose")
	}
}

func TestParseScheduleRecords(t *testing.T) {
	input := `
# final schedule Fall 2011
COSI 11A | Fall 2011
cosi 11a | Fall 2012
COSI 21A | Spring 2012
`
	recs, err := ParseScheduleRecords(strings.NewReader(input), term.TwoSeason)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs["COSI 11A"]) != 2 || len(recs["COSI 21A"]) != 1 {
		t.Errorf("records = %v", recs)
	}
	for _, bad := range []string{
		"COSI 11A Fall 2011",     // missing separator
		"NOPE | Fall 2011",       // bad course ref
		"COSI 11A | Winter 2011", // bad term
	} {
		if _, err := ParseScheduleRecords(strings.NewReader(bad), term.TwoSeason); err == nil {
			t.Errorf("bad record %q accepted", bad)
		}
	}
}

const sampleDump = `
# registrar dump, two courses
course: cosi 11a
title: Programming in Java and C
description: An introduction to programming.
  Usually offered every fall.
workload: 9

course: COSI 21A
title: Data Structures and Algorithms
description: Stacks, queues, and trees. Prerequisite: COSI 11a.
  Usually offered every semester.
workload: 12
`

func TestParseCatalogDump(t *testing.T) {
	specs, err := ParseCatalogDump(strings.NewReader(sampleDump), f11, f13)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	a, b := specs[0], specs[1]
	if a.ID != "COSI 11A" || a.Title != "Programming in Java and C" || a.Workload != 9 {
		t.Errorf("spec a = %+v", a)
	}
	if a.Prereq != "" {
		t.Errorf("a.Prereq = %q, want none", a.Prereq)
	}
	if len(a.Offered) != 3 { // falls '11, '12, '13
		t.Errorf("a.Offered = %v", a.Offered)
	}
	if b.Prereq != "COSI 11A" {
		t.Errorf("b.Prereq = %q", b.Prereq)
	}
	if len(b.Offered) != 5 { // every semester in window
		t.Errorf("b.Offered = %v", b.Offered)
	}
	// The specs feed straight into a working catalog.
	cat, err := catalog.FromSpecs(term.TwoSeason, specs)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 {
		t.Errorf("catalog len = %d", cat.Len())
	}
	i21, _ := cat.Index("COSI 21A")
	if cat.PrereqSatisfied(i21, cat.MustSetOf()) {
		t.Error("parsed prerequisite not enforced")
	}
	if !cat.PrereqSatisfied(i21, cat.MustSetOf("COSI 11A")) {
		t.Error("parsed prerequisite not satisfiable")
	}
}

func TestParseCatalogDumpErrors(t *testing.T) {
	bad := []string{
		"",                                    // empty
		"title: orphan\n",                     // key before course
		"course: ???\n",                       // bad id
		"course: COSI 11A\nworkload: heavy\n", // bad workload
		"course: COSI 11A\nmystery: x\n",      // unknown key
	}
	for _, in := range bad {
		if _, err := ParseCatalogDump(strings.NewReader(in), f11, f13); err == nil {
			t.Errorf("dump %q accepted", in)
		}
	}
	// Window validation.
	if _, err := ParseCatalogDump(strings.NewReader(sampleDump), term.Term{}, f13); err == nil {
		t.Error("zero window accepted")
	}
}

func TestMergeSchedule(t *testing.T) {
	courses, err := ParseCatalogCourses(strings.NewReader(sampleDump), f11, f13)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseScheduleRecords(strings.NewReader("COSI 11A | Spring 2012\n"), term.TwoSeason)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeSchedule(courses, recs); err != nil {
		t.Fatal(err)
	}
	// Records replace phrase-derived offerings entirely.
	if len(courses[0].Offered) != 1 || courses[0].Offered[0].Label() != "Spring 2012" {
		t.Errorf("merged offerings = %v", courses[0].Offered)
	}
	// Unknown course in records errors.
	badRecs := map[string][]term.Term{"COSI 99A": {f11}}
	if err := MergeSchedule(courses, badRecs); err == nil {
		t.Error("unknown course record accepted")
	}
}

// TestParseCatalogDumpDuplicateCourse: both modes treat a repeated
// course ID as a defect — strict aborts naming the line, lenient keeps
// the first record and quarantines the repeat. (The two must agree:
// FuzzParseCatalogDumpLenient holds strict-accepted inputs to zero
// lenient error diagnostics.)
func TestParseCatalogDumpDuplicateCourse(t *testing.T) {
	dump := "course: SI 1\ndescription: First.\n\ncourse: SI 1\ndescription: Again.\n"
	if _, err := ParseCatalogDump(strings.NewReader(dump), f11, f13); err == nil {
		t.Error("strict mode accepted a duplicate course ID")
	} else if !strings.Contains(err.Error(), `duplicate course "SI 1"`) || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("strict duplicate error = %v", err)
	}
	specs, diags, err := ParseCatalogDumpLenient(strings.NewReader(dump), f11, f13)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].ID != "SI 1" {
		t.Fatalf("lenient specs = %+v, want the first SI 1 only", specs)
	}
	if Errors(diags) != 1 {
		t.Errorf("lenient diagnostics = %v, want one duplicate error", diags)
	}
}
