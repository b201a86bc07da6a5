package term

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Reference oracles: term-label parsing and formatting as written before
// the separator replacer became a package variable and formatting
// stopped going through fmt. FuzzTermParse and TestFormatMatchesOracle
// hold the production code to these bodies.

func refSplitTermLabel(s string) []string {
	s = strings.NewReplacer("'", " ", "’", " ", "-", " ", "_", " ", ",", " ").Replace(s)
	fields := strings.Fields(s)
	if len(fields) == 1 {
		w := fields[0]
		i := 0
		for i < len(w) && !isDigit(w[i]) {
			i++
		}
		if i > 0 && i < len(w) {
			return []string{w[:i], w[i:]}
		}
	}
	return fields
}

func refParse(c *Calendar, s string) (Term, error) {
	raw := strings.TrimSpace(s)
	if raw == "" {
		return Term{}, fmt.Errorf("term: empty term string")
	}
	fields := refSplitTermLabel(raw)
	if len(fields) != 2 {
		return Term{}, fmt.Errorf("term: cannot parse %q", s)
	}
	a, b := fields[0], fields[1]
	if isNumeric(a) && !isNumeric(b) {
		a, b = b, a
	}
	season, err := ParseSeason(a)
	if err != nil {
		return Term{}, fmt.Errorf("term: cannot parse %q: %v", s, err)
	}
	year, err := parseYear(b)
	if err != nil {
		return Term{}, fmt.Errorf("term: cannot parse %q: %v", s, err)
	}
	t, err := c.Term(year, season)
	if err != nil {
		return Term{}, fmt.Errorf("term: %q: %v", s, err)
	}
	return t, nil
}

func refString(t Term) string {
	if t.IsZero() {
		return "Term(zero)"
	}
	return fmt.Sprintf("%s '%02d", t.Season(), t.Year()%100)
}

func refLabel(t Term) string {
	if t.IsZero() {
		return "Term(zero)"
	}
	return fmt.Sprintf("%s %d", t.Season(), t.Year())
}

// FuzzTermParse is the differential contract for Parse: on any input and
// either calendar it returns the same term and the same error text as
// the reference parser. The seeds cover every accepted form, the
// separators and whitespace variants, non-ASCII letters that case
// folding relates to ASCII ones (ſ, K), and the registrar's corrupted
// schedule corpus.
func FuzzTermParse(f *testing.F) {
	for _, seed := range []string{
		"Fall 2011", "Fall '11", "Fall’11", "fall11", "FA2011", "SP12",
		"2011 Fall", "fall-2011", "spring_2012", "Fall,2011",
		"  Fall\t2011 ", "Fall  2011", "Fall2011", "Fall 2011", "Fall\v2011",
		"Summer 2012", "Su '12", "ſpring 2012", "FALK 2011", "fall 99999",
		"Fall 0", "Fall '", "'11", "Fall - - 2011", "11 12", "fall fall", "",
	} {
		f.Add(seed)
	}
	corrupt, err := os.ReadFile("../registrar/testdata/corrupt/schedule.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(corrupt), "\n") {
		_, label, _ := strings.Cut(line, "|")
		f.Add(label)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, cal := range []*Calendar{TwoSeason, ThreeSeason} {
			got, err := Parse(cal, s)
			want, refErr := refParse(cal, s)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("Parse(%q) error %v, reference %v", s, err, refErr)
			}
			if !got.Equal(want) || got.IsZero() != want.IsZero() {
				t.Fatalf("Parse(%q) = %v, reference %v", s, got, want)
			}
		}
	})
}

// TestFormatMatchesOracle: String and Label render every term of both
// calendars over four centuries exactly as the fmt-based reference does.
func TestFormatMatchesOracle(t *testing.T) {
	for _, cal := range []*Calendar{TwoSeason, ThreeSeason} {
		for year := 1; year <= 2400; year++ {
			for _, season := range cal.Seasons() {
				tm := cal.MustTerm(year, season)
				if got, want := tm.String(), refString(tm); got != want {
					t.Fatalf("String() = %q, reference %q", got, want)
				}
				if got, want := tm.Label(), refLabel(tm); got != want {
					t.Fatalf("Label() = %q, reference %q", got, want)
				}
			}
		}
	}
	// Outside the calendar's range the output must match too, panics
	// included: ordinals below year 1, which Add can reach (Season panics
	// on some, Year goes negative on others), and the zero Term.
	render := func(f func() string) (s string, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return f(), false
	}
	for _, cal := range []*Calendar{TwoSeason, ThreeSeason} {
		for n := -450; n <= 0; n++ {
			tm := cal.MustTerm(1, cal.Seasons()[0]).Add(n)
			for _, pair := range [][2]func() string{
				{tm.String, func() string { return refString(tm) }},
				{tm.Label, func() string { return refLabel(tm) }},
			} {
				got, gotPanic := render(pair[0])
				want, wantPanic := render(pair[1])
				if got != want || gotPanic != wantPanic {
					t.Fatalf("ordinal %d: %q (panic %v), reference %q (panic %v)", tm.Ordinal(), got, gotPanic, want, wantPanic)
				}
			}
		}
	}
	if got := (Term{}).Label(); got != refLabel(Term{}) {
		t.Fatalf("zero Label() = %q", got)
	}
	if got := (Term{}).String(); got != refString(Term{}) {
		t.Fatalf("zero String() = %q", got)
	}
}
