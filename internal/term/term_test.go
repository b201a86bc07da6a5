package term

import (
	"testing"
	"testing/quick"
)

func TestSeasonString(t *testing.T) {
	cases := []struct {
		s    Season
		want string
	}{
		{Spring, "Spring"},
		{Summer, "Summer"},
		{Fall, "Fall"},
		{Season(9), "Season(9)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Season(%d).String() = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestParseSeason(t *testing.T) {
	ok := map[string]Season{
		"fall": Fall, "Fall": Fall, "FALL": Fall, "fa": Fall, "f": Fall, "autumn": Fall,
		"spring": Spring, "sp": Spring, "s": Spring, " Spring ": Spring,
		"summer": Summer, "su": Summer,
	}
	for in, want := range ok {
		got, err := ParseSeason(in)
		if err != nil {
			t.Errorf("ParseSeason(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSeason(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"", "winter", "x", "fallish"} {
		if _, err := ParseSeason(bad); err == nil {
			t.Errorf("ParseSeason(%q) succeeded, want error", bad)
		}
	}
}

func TestNewCalendarErrors(t *testing.T) {
	if _, err := NewCalendar(); err == nil {
		t.Error("empty calendar accepted")
	}
	if _, err := NewCalendar(Fall, Fall); err == nil {
		t.Error("duplicate season accepted")
	}
	if _, err := NewCalendar(Fall, Spring); err == nil {
		t.Error("out-of-order seasons accepted")
	}
	if _, err := NewCalendar(Season(7)); err == nil {
		t.Error("invalid season accepted")
	}
}

func TestCalendarBasics(t *testing.T) {
	if got := TwoSeason.TermsPerYear(); got != 2 {
		t.Errorf("TwoSeason.TermsPerYear() = %d, want 2", got)
	}
	if got := ThreeSeason.TermsPerYear(); got != 3 {
		t.Errorf("ThreeSeason.TermsPerYear() = %d, want 3", got)
	}
	if !TwoSeason.Contains(Fall) || !TwoSeason.Contains(Spring) {
		t.Error("TwoSeason missing Fall/Spring")
	}
	if TwoSeason.Contains(Summer) {
		t.Error("TwoSeason should not contain Summer")
	}
	got := TwoSeason.Seasons()
	if len(got) != 2 || got[0] != Spring || got[1] != Fall {
		t.Errorf("TwoSeason.Seasons() = %v", got)
	}
}

func TestTermConstruction(t *testing.T) {
	if _, err := TwoSeason.Term(2011, Summer); err == nil {
		t.Error("Summer accepted by TwoSeason")
	}
	if _, err := TwoSeason.Term(0, Fall); err == nil {
		t.Error("year 0 accepted")
	}
	f11 := TwoSeason.MustTerm(2011, Fall)
	if f11.Year() != 2011 || f11.Season() != Fall {
		t.Errorf("round-trip: got %d %v", f11.Year(), f11.Season())
	}
	if f11.IsZero() {
		t.Error("constructed term reported zero")
	}
	if !(Term{}).IsZero() {
		t.Error("zero term not reported zero")
	}
}

func TestTermSequencePaperExample(t *testing.T) {
	// The Figure 1 sequence: Fall '11 -> Spring '12 -> Fall '12.
	f11 := TwoSeason.MustTerm(2011, Fall)
	s12 := f11.Next()
	f12 := s12.Next()
	if s12.Year() != 2012 || s12.Season() != Spring {
		t.Errorf("Fall'11.Next() = %v", s12)
	}
	if f12.Year() != 2012 || f12.Season() != Fall {
		t.Errorf("Spring'12.Next() = %v", f12)
	}
	if got := f12.Sub(f11); got != 2 {
		t.Errorf("Fall'12 - Fall'11 = %d, want 2", got)
	}
	if !f11.Before(f12) || !f12.After(f11) {
		t.Error("ordering wrong")
	}
	if f12.Prev() != s12 {
		t.Error("Prev broken")
	}
	if f11.Add(2) != f12 {
		t.Error("Add broken")
	}
}

func TestTermCompareEqual(t *testing.T) {
	a := TwoSeason.MustTerm(2012, Spring)
	b := TwoSeason.MustTerm(2012, Spring)
	c := TwoSeason.MustTerm(2012, Fall)
	if !a.Equal(b) || a.Compare(b) != 0 {
		t.Error("equal terms not equal")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("Compare sign wrong")
	}
	// Terms from different calendars are never Equal even at same ordinal.
	d := ThreeSeason.MustTerm(2012, Spring)
	if a.Equal(d) {
		t.Error("cross-calendar terms reported equal")
	}
}

func TestTermString(t *testing.T) {
	f11 := TwoSeason.MustTerm(2011, Fall)
	if got := f11.String(); got != "Fall '11" {
		t.Errorf("String() = %q, want \"Fall '11\"", got)
	}
	if got := f11.Label(); got != "Fall 2011" {
		t.Errorf("Label() = %q, want \"Fall 2011\"", got)
	}
	if got := TwoSeason.MustTerm(2005, Spring).String(); got != "Spring '05" {
		t.Errorf("String() = %q, want \"Spring '05\"", got)
	}
	if got := (Term{}).String(); got != "Term(zero)" {
		t.Errorf("zero String() = %q", got)
	}
	if got := (Term{}).Label(); got != "Term(zero)" {
		t.Errorf("zero Label() = %q", got)
	}
}

func TestParse(t *testing.T) {
	want := TwoSeason.MustTerm(2011, Fall)
	for _, in := range []string{
		"Fall 2011", "fall 2011", "Fall '11", "Fall'11", "fall11",
		"FA2011", "2011 Fall", "fall-2011", "Fall_2011", "Fall,2011", "Fall’11",
	} {
		got, err := Parse(TwoSeason, in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", in, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{
		"", "Fall", "2011", "Winter 2011", "Fall 20111", "Summer 2011", "x y z", "99999",
	} {
		if _, err := Parse(TwoSeason, bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	// Summer parses under the three-season calendar.
	got, err := Parse(ThreeSeason, "Summer '13")
	if err != nil {
		t.Fatalf("Parse summer: %v", err)
	}
	if got.Season() != Summer || got.Year() != 2013 {
		t.Errorf("Parse summer = %v", got)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(year uint16, pick bool) bool {
		y := 2000 + int(year)%100
		season := Spring
		if pick {
			season = Fall
		}
		tm := TwoSeason.MustTerm(y, season)
		back, err := Parse(TwoSeason, tm.String())
		if err != nil {
			return false
		}
		back2, err := Parse(TwoSeason, tm.Label())
		if err != nil {
			return false
		}
		return back.Equal(tm) && back2.Equal(tm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrdinalDistanceProperty(t *testing.T) {
	// Adding n semesters always advances Ordinal by n and Sub inverts Add.
	f := func(year uint8, n int8) bool {
		tm := TwoSeason.MustTerm(2000+int(year)%50+10, Fall)
		u := tm.Add(int(n))
		return u.Sub(tm) == int(n) && u.Ordinal()-tm.Ordinal() == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRange(t *testing.T) {
	f11 := TwoSeason.MustTerm(2011, Fall)
	s13 := TwoSeason.MustTerm(2013, Spring)
	r := Range(f11, s13)
	if len(r) != 4 {
		t.Fatalf("Range length = %d, want 4", len(r))
	}
	wantLabels := []string{"Fall '11", "Spring '12", "Fall '12", "Spring '13"}
	for i, tm := range r {
		if tm.String() != wantLabels[i] {
			t.Errorf("Range[%d] = %q, want %q", i, tm.String(), wantLabels[i])
		}
	}
	if got := Range(s13, f11); got != nil {
		t.Errorf("reversed Range = %v, want nil", got)
	}
	if got := Range(f11, f11); len(got) != 1 {
		t.Errorf("single-term Range length = %d, want 1", len(got))
	}
	if got := Range(Term{}, f11); got != nil {
		t.Error("zero-start Range should be nil")
	}
	d := ThreeSeason.MustTerm(2012, Fall)
	if got := Range(f11, d); got != nil {
		t.Error("cross-calendar Range should be nil")
	}
}

func TestTermCalendarAccessor(t *testing.T) {
	if got := TwoSeason.MustTerm(2012, Fall).Calendar(); got != TwoSeason {
		t.Error("Calendar accessor wrong")
	}
}

// BenchmarkTermParse is one schedule-record or request term label: the
// parse runs for every schedule line of a registrar reload and every
// admitted request, so it must not build its separator replacer per call.
func BenchmarkTermParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(TwoSeason, "Fall 2013"); err != nil {
			b.Fatal(err)
		}
	}
}
