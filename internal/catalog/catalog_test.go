package catalog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/expr"
	"repro/internal/term"
)

var (
	f11 = term.TwoSeason.MustTerm(2011, Fall())
	s12 = f11.Next()
	f12 = s12.Next()
	s13 = f12.Next()
)

func Fall() term.Season { return term.Fall }

// paperCatalog is the 3-course example of the paper's Figure 3:
// C = {11A, 29A, 21A}; 21A requires 11A;
// S_11A = S_29A = {Fall'11, Fall'12}, S_21A = {Spring'12}.
func paperCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "11A", Offered: []term.Term{f11, f12}}).
		Add(Course{ID: "29A", Offered: []term.Term{f11, f12}}).
		Add(Course{ID: "21A", Prereq: expr.MustParse("11A"), Offered: []term.Term{s12}}).
		Build()
	if err != nil {
		t.Fatalf("paperCatalog: %v", err)
	}
	return cat
}

func TestBuilderBasics(t *testing.T) {
	cat := paperCatalog(t)
	if cat.Len() != 3 {
		t.Fatalf("Len = %d", cat.Len())
	}
	if got := cat.ID(cat.MustIndex("29A")); got != "29A" {
		t.Errorf("index round-trip = %q", got)
	}
	if _, ok := cat.Index("nope"); ok {
		t.Error("unknown ID found")
	}
	if cat.Calendar() != term.TwoSeason {
		t.Error("calendar not preserved")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(term.TwoSeason).Build(); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewBuilder(term.TwoSeason).Add(Course{ID: ""}).Build(); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1"}).Add(Course{ID: "A1"}).Build(); err == nil {
		t.Error("duplicate ID accepted")
	}
	summer := term.ThreeSeason.MustTerm(2012, term.Summer)
	if _, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Offered: []term.Term{summer}}).Build(); err == nil {
		t.Error("foreign-calendar term accepted")
	}
	if _, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Offered: []term.Term{{}}}).Build(); err == nil {
		t.Error("zero term accepted")
	}
	if _, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Prereq: expr.MustParse("GHOST 1")}).Build(); err == nil {
		t.Error("unknown prerequisite accepted")
	}
	// Error from Add sticks through subsequent Adds.
	b := NewBuilder(term.TwoSeason).Add(Course{ID: ""}).Add(Course{ID: "B1"})
	if _, err := b.Build(); err == nil {
		t.Error("sticky error lost")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	NewBuilder(term.TwoSeason).MustBuild()
}

func TestOfferedIn(t *testing.T) {
	cat := paperCatalog(t)
	if got := cat.IDs(cat.OfferedIn(f11)); !reflect.DeepEqual(got, []string{"11A", "29A"}) {
		t.Errorf("OfferedIn(Fall'11) = %v", got)
	}
	if got := cat.IDs(cat.OfferedIn(s12)); !reflect.DeepEqual(got, []string{"21A"}) {
		t.Errorf("OfferedIn(Spring'12) = %v", got)
	}
	if !cat.OfferedIn(s13).Empty() {
		t.Error("OfferedIn(Spring'13) not empty")
	}
}

func TestOfferedFrom(t *testing.T) {
	cat := paperCatalog(t)
	all := cat.MustSetOf("11A", "29A", "21A")
	if got := cat.OfferedFrom(f11, s13); !got.Equal(all) {
		t.Errorf("OfferedFrom full = %v", cat.IDs(got))
	}
	if got := cat.OfferedFrom(s12, s12); !got.Equal(cat.MustSetOf("21A")) {
		t.Errorf("OfferedFrom(Spring'12) = %v", cat.IDs(got))
	}
	if got := cat.OfferedFrom(f12, s13); !got.Equal(cat.MustSetOf("11A", "29A")) {
		t.Errorf("OfferedFrom(Fall'12..) = %v", cat.IDs(got))
	}
	if !cat.OfferedFrom(s13, s13).Empty() {
		t.Error("OfferedFrom beyond schedule not empty")
	}
	if !cat.OfferedFrom(f12, f11).Empty() {
		t.Error("reversed OfferedFrom not empty")
	}
	// Starting before the schedule clips to the schedule.
	f10 := f11.Add(-2)
	if got := cat.OfferedFrom(f10, f11); !got.Equal(cat.MustSetOf("11A", "29A")) {
		t.Errorf("clipped OfferedFrom = %v", cat.IDs(got))
	}
}

func TestFirstLastTerm(t *testing.T) {
	cat := paperCatalog(t)
	if !cat.FirstTerm().Equal(f11) {
		t.Errorf("FirstTerm = %v", cat.FirstTerm())
	}
	if !cat.LastTerm().Equal(f12) {
		t.Errorf("LastTerm = %v", cat.LastTerm())
	}
}

func TestOptionsPaperFigure3(t *testing.T) {
	cat := paperCatalog(t)
	empty := bitset.New(3)
	// At n1 (Fall '11, X = {}): options are 11A and 29A.
	if got := cat.IDs(cat.Options(empty, f11)); !reflect.DeepEqual(got, []string{"11A", "29A"}) {
		t.Errorf("Y1 = %v", got)
	}
	// At n4 (Spring '12, X = {29A}): 21A offered but prereq 11A missing.
	x29 := cat.MustSetOf("29A")
	if got := cat.Options(x29, s12); !got.Empty() {
		t.Errorf("Y4 = %v, want empty", cat.IDs(got))
	}
	// At n3 (Spring '12, X = {11A, 29A}): 21A eligible.
	x1129 := cat.MustSetOf("11A", "29A")
	if got := cat.IDs(cat.Options(x1129, s12)); !reflect.DeepEqual(got, []string{"21A"}) {
		t.Errorf("Y3 = %v", got)
	}
	// At n7 (Fall '12, X = {29A}): 11A offered again.
	if got := cat.IDs(cat.Options(x29, f12)); !reflect.DeepEqual(got, []string{"11A"}) {
		t.Errorf("Y7 = %v", got)
	}
	// Completed courses are excluded.
	if got := cat.Options(cat.MustSetOf("11A", "29A", "21A"), f12); !got.Empty() {
		t.Errorf("all-done options = %v", cat.IDs(got))
	}
}

// TestOptionsIntoMatchesOptions: OptionsInto answers exactly as Options
// for every completed set and term, reusing one destination set whatever
// it held before.
func TestOptionsIntoMatchesOptions(t *testing.T) {
	cat := paperCatalog(t)
	dst := cat.MustSetOf("11A", "29A", "21A")
	for mask := 0; mask < 1<<cat.Len(); mask++ {
		x := bitset.New(cat.Len())
		for i := 0; i < cat.Len(); i++ {
			if mask&(1<<i) != 0 {
				x.Add(i)
			}
		}
		for _, tm := range []term.Term{f11.Prev(), f11, s12, f12, s13} {
			want := cat.Options(x, tm)
			if got := cat.OptionsInto(&dst, x, tm); !got.Equal(want) || !dst.Equal(want) {
				t.Errorf("X=%v %v: OptionsInto %v, Options %v", cat.IDs(x), tm, cat.IDs(got), cat.IDs(want))
			}
		}
	}
}

func TestSetOfErrors(t *testing.T) {
	cat := paperCatalog(t)
	if _, err := cat.SetOf("11A", "nope"); err == nil {
		t.Error("unknown ID in SetOf accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSetOf did not panic")
		}
	}()
	cat.MustSetOf("nope")
}

func TestMustIndexPanics(t *testing.T) {
	cat := paperCatalog(t)
	defer func() {
		if recover() == nil {
			t.Error("MustIndex did not panic")
		}
	}()
	cat.MustIndex("nope")
}

func TestUnreachable(t *testing.T) {
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Offered: []term.Term{f11}}).
		Add(Course{ID: "B1", Prereq: expr.MustParse("C1"), Offered: []term.Term{f11}}).
		Add(Course{ID: "C1", Prereq: expr.MustParse("B1"), Offered: []term.Term{f11}}).
		Add(Course{ID: "D1", Prereq: expr.MustParse("A1 or B1"), Offered: []term.Term{f11}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := cat.Unreachable()
	if !reflect.DeepEqual(got, []string{"B1", "C1"}) {
		t.Errorf("Unreachable = %v, want [B1 C1]", got)
	}
	if got := paperCatalog(t).Unreachable(); got != nil {
		t.Errorf("paper catalog Unreachable = %v", got)
	}
}

func TestNeverOffered(t *testing.T) {
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Offered: []term.Term{f11}}).
		Add(Course{ID: "B1"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.NeverOffered(); !reflect.DeepEqual(got, []string{"B1"}) {
		t.Errorf("NeverOffered = %v", got)
	}
}

func TestPrereqSatisfiedAndCompiled(t *testing.T) {
	cat := paperCatalog(t)
	i21 := cat.MustIndex("21A")
	if cat.PrereqSatisfied(i21, bitset.New(3)) {
		t.Error("21A prereq satisfied by empty set")
	}
	if !cat.PrereqSatisfied(i21, cat.MustSetOf("11A")) {
		t.Error("21A prereq not satisfied by {11A}")
	}
	if cat.Compiled(i21).NumClauses() != 1 {
		t.Error("21A compiled clause count wrong")
	}
}

func TestWorkloads(t *testing.T) {
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Workload: 8, Offered: []term.Term{f11}}).
		Add(Course{ID: "B1", Workload: 12.5, Offered: []term.Term{f11}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Workloads(); !reflect.DeepEqual(got, []float64{8, 12.5}) {
		t.Errorf("Workloads = %v", got)
	}
}

func TestOfferedSorted(t *testing.T) {
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "A1", Offered: []term.Term{f12, f11}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	off := cat.Course(0).Offered
	if !off[0].Equal(f11) || !off[1].Equal(f12) {
		t.Errorf("Offered not sorted: %v", off)
	}
}

func TestSpecsRoundTrip(t *testing.T) {
	cat := paperCatalog(t)
	specs := cat.Specs()
	if len(specs) != 3 {
		t.Fatalf("Specs len = %d", len(specs))
	}
	// 11A has no prereq -> empty Prereq field.
	if specs[0].Prereq != "" {
		t.Errorf("11A Prereq = %q", specs[0].Prereq)
	}
	if specs[2].Prereq != "11A" {
		t.Errorf("21A Prereq = %q", specs[2].Prereq)
	}
	if !reflect.DeepEqual(specs[0].Offered, []string{"Fall 2011", "Fall 2012"}) {
		t.Errorf("11A Offered = %v", specs[0].Offered)
	}
	back, err := FromSpecs(term.TwoSeason, specs)
	if err != nil {
		t.Fatalf("FromSpecs: %v", err)
	}
	if back.Len() != cat.Len() {
		t.Fatalf("round-trip Len = %d", back.Len())
	}
	for i := 0; i < cat.Len(); i++ {
		a, b := cat.Course(i), back.Course(i)
		if a.ID != b.ID || a.Prereq.String() != b.Prereq.String() || len(a.Offered) != len(b.Offered) {
			t.Errorf("course %d round-trip mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cat := paperCatalog(t)
	var buf bytes.Buffer
	if err := cat.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(term.TwoSeason, &buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.Len() != 3 {
		t.Errorf("ReadJSON Len = %d", back.Len())
	}
	if _, err := ReadJSON(term.TwoSeason, strings.NewReader("not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadJSON(term.TwoSeason, strings.NewReader(`[{"id":"X1","offered":["Winter 2011"]}]`)); err == nil {
		t.Error("bad term label accepted")
	}
	if _, err := ReadJSON(term.TwoSeason, strings.NewReader(`[{"id":"X1","prereq":"(((","offered":[]}]`)); err == nil {
		t.Error("bad prereq accepted")
	}
}

func BenchmarkOptionsHotPath(b *testing.B) {
	// The Y-computation Algorithm 1 performs at every node.
	cat := paperCatalogB(b)
	x := cat.MustSetOf("11A")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cat.Options(x, s12).Empty() {
			b.Fatal("no options")
		}
	}
}

func paperCatalogB(b *testing.B) *Catalog {
	b.Helper()
	cat, err := NewBuilder(term.TwoSeason).
		Add(Course{ID: "11A", Offered: []term.Term{f11, f12}}).
		Add(Course{ID: "29A", Offered: []term.Term{f11, f12}}).
		Add(Course{ID: "21A", Prereq: expr.MustParse("11A"), Offered: []term.Term{s12}}).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func BenchmarkOfferedFromSuffix(b *testing.B) {
	cat := paperCatalogB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cat.OfferedFrom(f11, s13).Empty() {
			b.Fatal("empty union")
		}
	}
}

// TestBuilderDropsRepeatedOfferings: a schedule is a set, so a term
// listed twice is offered once.
func TestBuilderDropsRepeatedOfferings(t *testing.T) {
	offered := []term.Term{f12, f11, f12, s12, f11}
	cat := NewBuilder(term.TwoSeason).Add(Course{ID: "A1", Offered: offered}).MustBuild()
	if got, want := cat.Course(0).Offered, []term.Term{f11, s12, f12}; !reflect.DeepEqual(got, want) {
		t.Errorf("Offered = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(offered, []term.Term{f12, f11, f12, s12, f11}) {
		t.Errorf("Add rewrote the caller's slice: %v", offered)
	}
	if got := cat.Specs()[0].Offered; !reflect.DeepEqual(got, []string{"Fall 2011", "Spring 2012", "Fall 2012"}) {
		t.Errorf("spec offered = %q", got)
	}
}
