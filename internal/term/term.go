// Package term implements academic-semester arithmetic for CourseNavigator.
//
// The paper models time as a sequence of semesters with s[i+1] = s[i] + 1
// ("Fall '11", "Spring '12", "Fall '12", ...). A Term packs a calendar year
// and a season into a single ordinal so that ordering, distance and
// iteration are plain integer operations.
//
// The reproduction follows the paper's two-season academic calendar
// (Fall and Spring); Summer terms are supported as an extension and are
// disabled unless a Calendar including Summer is used.
package term

import (
	"fmt"
	"strconv"
	"strings"
)

// Season is the portion of the academic year a term occupies.
type Season uint8

// Seasons in within-year order. Spring precedes Fall within the same
// calendar year (Spring 2012 happens before Fall 2012).
const (
	Spring Season = iota
	Summer
	Fall
	numSeasons
)

// String returns the capitalized season name ("Spring", "Summer", "Fall").
func (s Season) String() string {
	switch s {
	case Spring:
		return "Spring"
	case Summer:
		return "Summer"
	case Fall:
		return "Fall"
	default:
		return fmt.Sprintf("Season(%d)", uint8(s))
	}
}

// ParseSeason parses a season name. It accepts any capitalization and the
// common short forms "fa", "sp", "su".
func ParseSeason(s string) (Season, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "spring", "spr", "sp", "s":
		return Spring, nil
	case "summer", "sum", "su":
		return Summer, nil
	case "fall", "autumn", "fa", "f":
		return Fall, nil
	default:
		return 0, fmt.Errorf("term: unknown season %q", s)
	}
}

// Calendar defines which seasons exist in an academic year and their order.
// The paper's evaluation uses the two-season calendar.
type Calendar struct {
	seasons []Season // within-year order
	index   [numSeasons]int8
}

// NewCalendar builds a calendar from the given seasons, which must be
// distinct and listed in within-year order.
func NewCalendar(seasons ...Season) (*Calendar, error) {
	if len(seasons) == 0 {
		return nil, fmt.Errorf("term: calendar needs at least one season")
	}
	c := &Calendar{seasons: append([]Season(nil), seasons...)}
	for i := range c.index {
		c.index[i] = -1
	}
	prev := Season(0)
	for i, s := range seasons {
		if s >= numSeasons {
			return nil, fmt.Errorf("term: invalid season %d", s)
		}
		if c.index[s] >= 0 {
			return nil, fmt.Errorf("term: duplicate season %v", s)
		}
		if i > 0 && s <= prev {
			return nil, fmt.Errorf("term: seasons out of within-year order: %v after %v", s, prev)
		}
		c.index[s] = int8(i)
		prev = s
	}
	return c, nil
}

// TwoSeason is the Fall/Spring calendar used throughout the paper.
var TwoSeason = mustCalendar(Spring, Fall)

// ThreeSeason additionally includes Summer terms.
var ThreeSeason = mustCalendar(Spring, Summer, Fall)

func mustCalendar(seasons ...Season) *Calendar {
	c, err := NewCalendar(seasons...)
	if err != nil {
		panic(err)
	}
	return c
}

// TermsPerYear reports how many terms the calendar has per calendar year.
func (c *Calendar) TermsPerYear() int { return len(c.seasons) }

// Contains reports whether the calendar includes season s.
func (c *Calendar) Contains(s Season) bool {
	return s < numSeasons && c.index[s] >= 0
}

// Seasons returns the calendar's seasons in within-year order.
func (c *Calendar) Seasons() []Season {
	return append([]Season(nil), c.seasons...)
}

// A Term is one academic semester: a (year, season) pair tied to a Calendar.
// Terms form a totally ordered sequence; Next/Prev move by one semester,
// matching the paper's s+1 transitions. The zero Term is invalid; build
// Terms with Calendar.Term or Parse.
type Term struct {
	cal *Calendar
	ord int // year*TermsPerYear + seasonIndex
}

// Term builds the term for the given calendar year and season.
func (c *Calendar) Term(year int, season Season) (Term, error) {
	if year < 1 {
		return Term{}, fmt.Errorf("term: invalid year %d", year)
	}
	if !c.Contains(season) {
		return Term{}, fmt.Errorf("term: season %v not in calendar", season)
	}
	return Term{cal: c, ord: year*len(c.seasons) + int(c.index[season])}, nil
}

// MustTerm is Term but panics on error; intended for tests and constants.
func (c *Calendar) MustTerm(year int, season Season) Term {
	t, err := c.Term(year, season)
	if err != nil {
		panic(err)
	}
	return t
}

// IsZero reports whether t is the invalid zero Term.
func (t Term) IsZero() bool { return t.cal == nil }

// Calendar returns the calendar the term belongs to.
func (t Term) Calendar() *Calendar { return t.cal }

// Year returns the calendar year of the term.
func (t Term) Year() int { return t.ord / len(t.cal.seasons) }

// Season returns the season of the term.
func (t Term) Season() Season { return t.cal.seasons[t.ord%len(t.cal.seasons)] }

// Ordinal returns the term's position in the calendar's global semester
// sequence. Ordinals of terms from the same calendar differ by exactly the
// number of semesters between them.
func (t Term) Ordinal() int { return t.ord }

// Next returns the following semester (the paper's s+1).
func (t Term) Next() Term { return Term{cal: t.cal, ord: t.ord + 1} }

// Prev returns the preceding semester.
func (t Term) Prev() Term { return Term{cal: t.cal, ord: t.ord - 1} }

// Add returns the term n semesters after t (n may be negative).
func (t Term) Add(n int) Term { return Term{cal: t.cal, ord: t.ord + n} }

// Before reports whether t occurs strictly before u.
func (t Term) Before(u Term) bool { return t.ord < u.ord }

// After reports whether t occurs strictly after u.
func (t Term) After(u Term) bool { return t.ord > u.ord }

// Equal reports whether t and u denote the same semester.
func (t Term) Equal(u Term) bool { return t.cal == u.cal && t.ord == u.ord }

// Compare returns -1, 0 or +1 ordering t against u.
func (t Term) Compare(u Term) int {
	switch {
	case t.ord < u.ord:
		return -1
	case t.ord > u.ord:
		return 1
	default:
		return 0
	}
}

// Sub returns the number of semesters from u to t (t − u).
func (t Term) Sub(u Term) int { return t.ord - u.ord }

// String renders the term in the paper's style, e.g. "Fall '11".
func (t Term) String() string {
	if t.IsZero() {
		return "Term(zero)"
	}
	yy := t.Year() % 100
	var buf [16]byte
	b := append(buf[:0], t.Season().String()...)
	b = append(b, ' ', '\'')
	if 0 <= yy && yy < 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(yy), 10))
}

// Label renders the term with the full year, e.g. "Fall 2011".
func (t Term) Label() string {
	if t.IsZero() {
		return "Term(zero)"
	}
	var buf [24]byte
	b := append(buf[:0], t.Season().String()...)
	b = append(b, ' ')
	return string(strconv.AppendInt(b, int64(t.Year()), 10))
}

// Parse parses a term label against the given calendar. Accepted forms:
// "Fall 2011", "Fall '11", "fall11", "FA2011", "2011 Fall". Two-digit years
// are interpreted as 20xx.
func Parse(c *Calendar, s string) (Term, error) {
	raw := strings.TrimSpace(s)
	if raw == "" {
		return Term{}, fmt.Errorf("term: empty term string")
	}
	fields := splitTermLabel(raw)
	if len(fields) != 2 {
		return Term{}, fmt.Errorf("term: cannot parse %q", s)
	}
	a, b := fields[0], fields[1]
	// Allow "2011 Fall" as well as "Fall 2011".
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

// separatorsToSpace rewrites the characters a term label may use between
// its season and year instead of a space.
var separatorsToSpace = strings.NewReplacer("'", " ", "’", " ", "-", " ", "_", " ", ",", " ")

// splitTermLabel splits a term label into its season and year parts,
// tolerating separators ("Fall 2011", "Fall'11", "fall-2011") and the
// compact form "fall11".
func splitTermLabel(s string) []string {
	if strings.ContainsAny(s, "'-_,") || strings.Contains(s, "’") {
		s = separatorsToSpace.Replace(s)
	}
	fields := strings.Fields(s)
	if len(fields) == 1 {
		// Compact form: letters immediately followed by digits.
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

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return true
}

func parseYear(s string) (int, error) {
	y, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad year %q", s)
	}
	if y < 100 {
		y += 2000
	}
	if y < 1000 || y > 9999 {
		return 0, fmt.Errorf("year %d out of range", y)
	}
	return y, nil
}

// Labels parses term labels against one calendar, each distinct label
// once: an import repeats a handful of labels over every schedule record.
// Failures are not remembered, so a bad label reports Parse's error each
// time. A Labels belongs to one import and is not safe for concurrent use.
type Labels struct {
	cal  *Calendar
	seen map[string]Term
}

// NewLabels returns an empty Labels for calendar c.
func NewLabels(c *Calendar) *Labels {
	return &Labels{cal: c, seen: map[string]Term{}}
}

// Parse is Parse(c, s), remembered for s.
func (l *Labels) Parse(s string) (Term, error) {
	if t, ok := l.seen[s]; ok {
		return t, nil
	}
	t, err := Parse(l.cal, s)
	if err == nil {
		l.seen[s] = t
	}
	return t, err
}

// ParseBytes is Parse for the label in b, copying b only on a label's
// first sighting.
func (l *Labels) ParseBytes(b []byte) (Term, error) {
	if t, ok := l.seen[string(b)]; ok {
		return t, nil
	}
	return l.Parse(string(b))
}

// Range returns the terms from first to last inclusive. It returns nil if
// the terms belong to different calendars or last precedes first.
func Range(first, last Term) []Term {
	if first.IsZero() || last.IsZero() || first.cal != last.cal || last.ord < first.ord {
		return nil
	}
	out := make([]Term, 0, last.ord-first.ord+1)
	for t := first; !t.After(last); t = t.Next() {
		out = append(out, t)
	}
	return out
}
