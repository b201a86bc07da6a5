package coursenav_test

// The registrar import is one typed pass: parsed prerequisites and terms
// go straight into the catalog builder. textImport is the same import
// through text — every course printed to its spec, the schedule overlaid
// as term labels, the specs quarantined by integrity.QuarantineSpecs and
// the catalog built by parsing every spec again in catalog.FromSpecs —
// and the fuzzer below holds the two to the same catalog, diagnostics,
// quarantine list and error.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/registrar"
	"repro/internal/term"
)

// importResult is what one import produced, rendered for comparison.
type importResult struct {
	catalogJSON string
	diags       []registrar.Diagnostic
	quarantined []string
	integrity   integrity.Report
	err         string
}

func typedImport(dump, schedule string, lenient bool) importResult {
	first, last := brandeis.FirstTerm().Label(), brandeis.EndTerm().Label()
	var sched io.Reader
	if schedule != "" {
		sched = strings.NewReader(schedule)
	}
	var (
		nav *coursenav.Navigator
		rep *coursenav.ImportReport
		err error
	)
	if lenient {
		nav, rep, err = coursenav.NewFromRegistrarDumpLenient(strings.NewReader(dump), sched, first, last)
	} else {
		nav, err = coursenav.NewFromRegistrarDump(strings.NewReader(dump), sched, first, last)
	}
	if err != nil {
		return importResult{err: err.Error()}
	}
	var res importResult
	var b bytes.Buffer
	if err := nav.WriteCatalogJSON(&b); err != nil {
		return importResult{err: err.Error()}
	}
	res.catalogJSON = b.String()
	if rep != nil {
		res.diags, res.quarantined, res.integrity = rep.Diagnostics, rep.Quarantined, rep.Integrity
	}
	return res
}

func textImport(dump, schedule string, lenient bool) importResult {
	first, last := brandeis.FirstTerm(), brandeis.EndTerm()
	var (
		specs []catalog.CourseSpec
		diags []registrar.Diagnostic
		err   error
	)
	if lenient {
		specs, diags, err = registrar.ParseCatalogDumpLenient(strings.NewReader(dump), first, last)
	} else {
		specs, err = registrar.ParseCatalogDump(strings.NewReader(dump), first, last)
	}
	if err != nil {
		return importResult{err: err.Error()}
	}
	quarantined := registrar.Quarantined(diags)
	if schedule != "" {
		var recs map[string][]term.Term
		var sdiags []registrar.Diagnostic
		if lenient {
			recs, sdiags, err = registrar.ParseScheduleRecordsLenient(strings.NewReader(schedule), term.TwoSeason)
		} else {
			recs, err = registrar.ParseScheduleRecords(strings.NewReader(schedule), term.TwoSeason)
		}
		if err != nil {
			return importResult{err: err.Error()}
		}
		diags = append(diags, sdiags...)
		mdiags, err := mergeLabels(specs, recs, lenient)
		if err != nil {
			return importResult{err: err.Error()}
		}
		diags = append(diags, mdiags...)
	}
	if lenient {
		clean, dropped, issues := integrity.QuarantineSpecs(term.TwoSeason, specs)
		for _, is := range issues {
			sev := registrar.SevError
			if is.Severity == integrity.Warning {
				sev = registrar.SevWarning
			}
			diags = append(diags, registrar.Diagnostic{Course: is.Course, Field: "integrity", Severity: sev, Msg: is.Detail})
		}
		quarantined = append(quarantined, dropped...)
		if len(clean) == 0 {
			return importResult{err: fmt.Sprintf("coursenav: no importable course records (%d quarantined)", len(quarantined))}
		}
		specs = clean
	}
	cat, err := catalog.FromSpecs(term.TwoSeason, specs)
	if err != nil {
		return importResult{err: err.Error()}
	}
	var b bytes.Buffer
	if err := cat.WriteJSON(&b); err != nil {
		return importResult{err: err.Error()}
	}
	res := importResult{catalogJSON: b.String(), diags: diags, quarantined: quarantined}
	if lenient {
		res.integrity = integrity.Check(cat)
	}
	return res
}

// mergeLabels overlays schedule records onto specs as term labels, as
// registrar.MergeSchedule overlays them onto courses.
func mergeLabels(specs []catalog.CourseSpec, records map[string][]term.Term, lenient bool) ([]registrar.Diagnostic, error) {
	byID := map[string]int{}
	for i, sp := range specs {
		byID[sp.ID] = i
	}
	ids := make([]string, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var diags []registrar.Diagnostic
	for _, id := range ids {
		i, ok := byID[id]
		if !ok {
			if !lenient {
				return nil, fmt.Errorf("registrar: schedule record for unknown course %q", id)
			}
			diags = append(diags, registrar.Diagnostic{Course: id, Field: "merge", Severity: registrar.SevWarning,
				Msg: fmt.Sprintf("schedule record for unknown course %q ignored", id)})
			continue
		}
		labels := make([]string, len(records[id]))
		for j, t := range records[id] {
			labels[j] = t.Label()
		}
		specs[i].Offered = labels
	}
	return diags, nil
}

// proseDump renders the embedded catalog as the prose registrars
// publish: lower-case references with advisory noise and "usually
// offered" phrases instead of schedule records.
func proseDump() string {
	nav, _ := coursenav.Brandeis()
	phrases := []string{"semester", "fall", "spring", "year", "second year"}
	var cat strings.Builder
	for i, c := range nav.Courses() {
		fmt.Fprintf(&cat, "course: %s\ntitle: %s\ndescription: %s.", c.ID, c.Title, c.Title)
		if c.Prereq != "" {
			fmt.Fprintf(&cat, " Prerequisites: %s, or permission of the instructor.", strings.ToLower(c.Prereq))
		}
		fmt.Fprintf(&cat, "\n  Usually offered every %s.\nworkload: %g\n\n", phrases[i%len(phrases)], c.Workload)
	}
	return cat.String()
}

// FuzzImportTypedMatchesText holds the typed registrar import to the
// text import in strict and lenient mode, on the Brandeis dump, the
// corrupted corpus and the registrar fuzz corpus.
func FuzzImportTypedMatchesText(f *testing.F) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	nav, _ := coursenav.Brandeis()
	dump, schedule := registrarText(nav)
	f.Add(string(dump), string(schedule))
	f.Add(proseDump(), "")
	f.Add(read(corruptCatalog), read(corruptSchedule))
	f.Add(read(corruptCatalog), "")
	f.Add("course:SI1\ntitle\ndescription:\ncourse:SI1", "")
	f.Add("course: COSI 11A\ndescription: Intro. Usually offered every fall.\n\ncourse: COSI 21A\n"+
		"description: Prerequisites: cosi 11a or equivalent, or permission of the instructor.\n  Usually offered every second year.\n",
		"cosi 11a | Fall 2012\nCOSI 11A | fall 2012\nCOSI 21A | Spring 2013\nCOSI 99Z | Fall 2013\n")
	f.Add("course: A 1\ndescription: Prerequisite: A 1.\n\ncourse: B 2\ndescription: Prerequisite: C 3 and A 1.\n", "A 1 | Fall 2012\n")
	f.Fuzz(func(t *testing.T, dump, schedule string) {
		for _, lenient := range []bool{false, true} {
			got, want := typedImport(dump, schedule, lenient), textImport(dump, schedule, lenient)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lenient=%v: typed import\n%+v\ntext import\n%+v", lenient, got, want)
			}
		}
	})
}

// TestRepeatedScheduleRecords: a schedule is a set. A record listed twice
// imports as one offering in both modes, and the lenient import warns.
func TestRepeatedScheduleRecords(t *testing.T) {
	dump := "course: COSI 11A\ntitle: Intro\ndescription: Programming.\n"
	schedule := "COSI 11A | Fall 2011\nCOSI 11A | Spring 2012\ncosi 11a | Fall 2011\n"
	nav, err := coursenav.NewFromRegistrarDump(strings.NewReader(dump), strings.NewReader(schedule), "Fall 2011", "Fall 2013")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Fall 2011", "Spring 2012"}
	if c, _ := nav.Course("COSI 11A"); !reflect.DeepEqual(c.Offered, want) {
		t.Errorf("strict offered = %q, want %q", c.Offered, want)
	}
	nav, rep, err := coursenav.NewFromRegistrarDumpLenient(strings.NewReader(dump), strings.NewReader(schedule), "Fall 2011", "Fall 2013")
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := nav.Course("COSI 11A"); !reflect.DeepEqual(c.Offered, want) {
		t.Errorf("lenient offered = %q, want %q", c.Offered, want)
	}
	wantDiag := registrar.Diagnostic{Course: "COSI 11A", Field: "integrity", Severity: registrar.SevWarning,
		Msg: `offering "Fall 2011" listed more than once`}
	if !reflect.DeepEqual(rep.Diagnostics, []registrar.Diagnostic{wantDiag}) {
		t.Errorf("lenient diagnostics = %v, want [%v]", rep.Diagnostics, wantDiag)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("quarantined = %v, want none", rep.Quarantined)
	}
}
