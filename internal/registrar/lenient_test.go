package registrar

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/term"
)

func openCorrupt(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open("testdata/corrupt/" + name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestParseCatalogDumpLenientCorpus: the corrupted corpus imports with
// exactly the defective records quarantined, each with a diagnostic
// naming its line, while every well-formed record still loads.
func TestParseCatalogDumpLenientCorpus(t *testing.T) {
	specs, diags, err := ParseCatalogDumpLenient(openCorrupt(t, "catalog.txt"), f11, f13)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sp := range specs {
		ids = append(ids, sp.ID)
	}
	if got, want := strings.Join(ids, ","), "COSI 11A,COSI 21A,PHYS 20B,COSI 31A"; got != want {
		t.Errorf("surviving specs = %s, want %s", got, want)
	}
	if got, want := strings.Join(Quarantined(diags), ","), "MATH 10A,HIST 5A"; got != want {
		t.Errorf("Quarantined = %s, want %s", got, want)
	}
	if n := Errors(diags); n != 2 {
		t.Fatalf("error diagnostics = %d (%v), want 2", n, diags)
	}
	want := []Diagnostic{
		{Line: 18, Course: "MATH 10A", Field: "prereq", Severity: SevError},
		{Line: 31, Course: "HIST 5A", Field: "workload", Severity: SevError},
	}
	for i, w := range want {
		d := diags[i]
		if d.Line != w.Line || d.Course != w.Course || d.Field != w.Field || d.Severity != w.Severity {
			t.Errorf("diag[%d] = %+v, want line %d course %s field %s", i, d, w.Line, w.Course, w.Field)
		}
		if d.Msg == "" {
			t.Errorf("diag[%d] has no message", i)
		}
	}
}

// TestParseCatalogDumpStrictCorpus: strict mode fails fast on the same
// corpus, at the first defective record.
func TestParseCatalogDumpStrictCorpus(t *testing.T) {
	_, err := ParseCatalogDump(openCorrupt(t, "catalog.txt"), f11, f13)
	if err == nil {
		t.Fatal("strict parse accepted the corrupted corpus")
	}
	if !strings.Contains(err.Error(), "MATH 10A") {
		t.Errorf("strict error %q does not name the first defective record MATH 10A", err)
	}
}

// TestParseScheduleRecordsLenientCorpus: corrupt schedule lines are
// skipped with line-level diagnostics; well-formed lines still load.
func TestParseScheduleRecordsLenientCorpus(t *testing.T) {
	recs, diags, err := ParseScheduleRecordsLenient(openCorrupt(t, "schedule.txt"), term.TwoSeason)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs["COSI 11A"]) != 1 || len(recs["COSI 21A"]) != 1 || len(recs["MATH 10A"]) != 1 {
		t.Errorf("records = %v", recs)
	}
	if len(diags) != 2 {
		t.Fatalf("diags = %v, want 2", diags)
	}
	if diags[0].Line != 3 || diags[0].Field != "schedule" || diags[0].Severity != SevError {
		t.Errorf("diag[0] = %+v, want error at line 3", diags[0])
	}
	if diags[1].Line != 4 || diags[1].Course != "COSI 21A" || diags[1].Severity != SevError {
		t.Errorf("diag[1] = %+v, want error at line 4 for COSI 21A", diags[1])
	}
	// A dropped schedule line does not quarantine its course record.
	if _, strictErr := ParseScheduleRecords(openCorrupt(t, "schedule.txt"), term.TwoSeason); strictErr == nil {
		t.Error("strict schedule parse accepted the corrupted corpus")
	}
}

// TestParsePrereqErrorPosition: ParsePrereq failures carry the byte
// offset and text of the offending fragment inside the cleaned sentence.
func TestParsePrereqErrorPosition(t *testing.T) {
	_, err := ParsePrereq("Prerequisite: COSI 11a COSI 21a.")
	if err == nil {
		t.Fatal("want error for two adjacent references")
	}
	var pe *PrereqError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PrereqError", err)
	}
	if pe.Fragment != "COSI 21A" {
		t.Errorf("Fragment = %q, want COSI 21A", pe.Fragment)
	}
	if pe.Offset <= 0 || pe.Offset >= len(pe.Sentence) {
		t.Errorf("Offset = %d outside sentence %q", pe.Offset, pe.Sentence)
	}
	// The offset points at the quoted canonicalised reference.
	if !strings.HasPrefix(pe.Sentence[pe.Offset:], `"`+pe.Fragment+`"`) {
		t.Errorf("Sentence[%d:] = %q does not start with the fragment", pe.Offset, pe.Sentence[pe.Offset:])
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error %q does not mention the offset", err)
	}

	// End-of-sentence failures report Offset == len(Sentence), Fragment "".
	_, err = ParsePrereq("Prerequisite: COSI 11a and (COSI 21a.")
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PrereqError", err)
	}
	if pe.Fragment != "" || pe.Offset != len(pe.Sentence) {
		t.Errorf("end-of-sentence error = offset %d fragment %q (sentence len %d)",
			pe.Offset, pe.Fragment, len(pe.Sentence))
	}
}

func TestParsePrereqLenient(t *testing.T) {
	e, diags := ParsePrereqLenient("Prerequisite: COSI 11a.")
	if len(diags) != 0 || e.String() != "COSI 11A" {
		t.Errorf("clean prose: e=%v diags=%v", e, diags)
	}
	e, diags = ParsePrereqLenient("Prerequisite: a solid background in (unbalanced.")
	if e.String() != "true" {
		t.Errorf("lenient failure e = %v, want tautology", e)
	}
	if len(diags) != 1 || diags[0].Severity != SevError || diags[0].Field != "prereq" {
		t.Errorf("diags = %v", diags)
	}
}

// TestLenientReadFailure: an I/O fault mid-read is a hard error even in
// lenient mode — a dying source must never look like a shorter catalog.
func TestLenientReadFailure(t *testing.T) {
	r := &chaos.Reader{R: strings.NewReader(sampleDump), FailAfter: 40}
	_, _, err := ParseCatalogDumpLenient(r, f11, f13)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("catalog read fault = %v, want ErrInjected", err)
	}
	sr := &chaos.Reader{R: strings.NewReader("COSI 11A | Fall 2011\nCOSI 11A | Fall 2012\n"), FailAfter: 10}
	_, _, err = ParseScheduleRecordsLenient(sr, term.TwoSeason)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("schedule read fault = %v, want ErrInjected", err)
	}
}

func TestMergeScheduleLenient(t *testing.T) {
	courses, err := ParseCatalogCourses(strings.NewReader(sampleDump), f11, f13)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string][]term.Term{
		"COSI 11A": {f11},
		"COSI 99Z": {f11}, // unknown: its course was never in the dump
	}
	diags := MergeScheduleLenient(courses, recs)
	if len(courses[0].Offered) != 1 || courses[0].Offered[0] != f11 {
		t.Errorf("merged offerings = %v", courses[0].Offered)
	}
	if len(diags) != 1 || diags[0].Severity != SevWarning || diags[0].Course != "COSI 99Z" {
		t.Errorf("diags = %v, want one warning for COSI 99Z", diags)
	}
	// Warnings never mark records as quarantined.
	if q := Quarantined(diags); len(q) != 0 {
		t.Errorf("Quarantined = %v, want none", q)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Line: 12, Course: "COSI 11A", Field: "prereq", Severity: SevError, Msg: "boom"}
	if got := d.String(); got != "line 12 [error] course COSI 11A prereq: boom" {
		t.Errorf("String() = %q", got)
	}
}
