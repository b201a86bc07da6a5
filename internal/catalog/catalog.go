// Package catalog models the registrar data CourseNavigator explores: the
// course set C, each course's prerequisite condition Q and schedule S, and
// the derived queries the path-generation algorithms issue in their inner
// loops (which courses are offered in a semester, which of those a student
// with completed set X may take).
//
// A Catalog assigns every course a dense index so that course sets are
// bitsets and prerequisite conditions are compiled DNF clause sets
// (see internal/expr and internal/bitset).
package catalog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/expr"
	"repro/internal/jsonenc"
	"repro/internal/term"
)

// Course describes one course as provided by the registrar back-end.
type Course struct {
	// ID is the registrar identifier, e.g. "COSI 11A". Unique per catalog.
	ID string
	// Title is the human-readable course title.
	Title string
	// Prereq is the prerequisite condition Q. nil means no prerequisite.
	Prereq expr.Expr
	// Offered lists the semesters the course is offered (the schedule S).
	Offered []term.Term
	// Workload is the estimated weekly effort in hours, the paper's w(c),
	// as reported by past students. Zero means unknown.
	Workload float64
}

// Catalog is an immutable, indexed course catalog. Build one with Builder.
type Catalog struct {
	cal     *term.Calendar
	courses []Course
	byID    map[string]int
	// foldID maps a case-folded course ID to its dense index, for
	// Canonical. IDs whose folded forms collide are left out, so folded
	// lookup never guesses between distinct courses.
	foldID map[string]int
	// idJSON holds every course ID as a JSON string literal, escaped once
	// when the catalog is built, for the response renderer: course i's
	// literal ends at idEnd[i] and starts where course i-1's ends.
	idJSON   string
	idEnd    []int32
	compiled []expr.Compiled
	// offered maps a term ordinal to the set of courses offered that term.
	offered map[int]bitset.Set
	// suffix[i] is the union of offerings in all recorded terms with
	// ordinal >= minOrd+i, and prefix[i] the union with ordinal <=
	// minOrd+i; both serve availability pruning, see OfferedFrom.
	minOrd, maxOrd int
	suffix         []bitset.Set
	prefix         []bitset.Set
}

// Builder accumulates courses and produces a validated Catalog.
type Builder struct {
	cal     *term.Calendar
	courses []Course
	seen    map[string]int
	err     error
}

// NewBuilder returns a Builder for catalogs over the given academic
// calendar.
func NewBuilder(cal *term.Calendar) *Builder {
	return &Builder{cal: cal, seen: map[string]int{}}
}

// Add appends a course, its offerings sorted with repeated terms dropped.
// Errors (duplicate ID, foreign-calendar offerings) are deferred to Build.
func (b *Builder) Add(c Course) *Builder {
	if b.err != nil {
		return b
	}
	if c.ID == "" {
		b.err = fmt.Errorf("catalog: course with empty ID")
		return b
	}
	if _, dup := b.seen[c.ID]; dup {
		b.err = fmt.Errorf("catalog: duplicate course %q", c.ID)
		return b
	}
	for _, t := range c.Offered {
		if t.IsZero() || t.Calendar() != b.cal {
			b.err = fmt.Errorf("catalog: course %q offered in term from a different calendar", c.ID)
			return b
		}
	}
	if c.Prereq == nil {
		c.Prereq = expr.True{}
	}
	// A schedule is a set: keep each term once, in order.
	c.Offered = append([]term.Term(nil), c.Offered...)
	if !slices.IsSortedFunc(c.Offered, term.Term.Compare) {
		slices.SortFunc(c.Offered, term.Term.Compare)
	}
	c.Offered = slices.CompactFunc(c.Offered, term.Term.Equal)
	b.seen[c.ID] = len(b.courses)
	b.courses = append(b.courses, c)
	return b
}

// Build validates the accumulated courses and returns the Catalog. Every
// prerequisite must reference only courses in the catalog.
func (b *Builder) Build() (*Catalog, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.courses) == 0 {
		return nil, fmt.Errorf("catalog: no courses")
	}
	n := len(b.courses)
	cat := &Catalog{
		cal:      b.cal,
		courses:  append([]Course(nil), b.courses...),
		byID:     make(map[string]int, n),
		idEnd:    make([]int32, n),
		compiled: make([]expr.Compiled, n),
		offered:  map[int]bitset.Set{},
		minOrd:   -1,
		maxOrd:   -1,
	}
	size := 0
	for i, c := range cat.courses {
		cat.byID[c.ID] = i
		size += len(c.ID) + 2
	}
	lits := make([]byte, 0, size)
	for i, c := range cat.courses {
		lits = jsonenc.String(lits, c.ID)
		cat.idEnd[i] = int32(len(lits))
	}
	cat.idJSON = string(lits)
	cat.foldID = make(map[string]int, n)
	for i, c := range cat.courses {
		f := strings.ToUpper(c.ID)
		if prev, dup := cat.foldID[f]; dup {
			// Two IDs differing only in case: folded lookup is ambiguous,
			// so neither resolves case-insensitively.
			if prev >= 0 {
				cat.foldID[f] = -1
			}
			continue
		}
		cat.foldID[f] = i
	}
	index := func(id string) (int, error) {
		i, ok := cat.byID[id]
		if !ok {
			return 0, fmt.Errorf("catalog: prerequisite references unknown course %q", id)
		}
		return i, nil
	}
	for i, c := range cat.courses {
		comp, err := expr.Compile(c.Prereq, n, index)
		if err != nil {
			return nil, fmt.Errorf("catalog: course %q: %v", c.ID, err)
		}
		cat.compiled[i] = comp
		for _, t := range c.Offered {
			o := t.Ordinal()
			s, ok := cat.offered[o]
			if !ok {
				s = bitset.New(n)
				cat.offered[o] = s
			}
			s.Add(i)
			cat.offered[o] = s
			if cat.minOrd < 0 || o < cat.minOrd {
				cat.minOrd = o
			}
			if o > cat.maxOrd {
				cat.maxOrd = o
			}
		}
	}
	cat.buildSuffix()
	return cat, nil
}

// buildSuffix precomputes, for every recorded ordinal o, the union of all
// offerings at ordinals >= o (suffix) and <= o (prefix).
func (c *Catalog) buildSuffix() {
	if c.minOrd < 0 {
		return
	}
	n := len(c.courses)
	width := c.maxOrd - c.minOrd + 1
	c.suffix = make([]bitset.Set, width+1)
	c.suffix[width] = bitset.New(n)
	for i := width - 1; i >= 0; i-- {
		u := c.suffix[i+1].Clone()
		if s, ok := c.offered[c.minOrd+i]; ok {
			u.UnionInPlace(s)
		}
		c.suffix[i] = u
	}
	c.prefix = make([]bitset.Set, width)
	for i := 0; i < width; i++ {
		var u bitset.Set
		if i == 0 {
			u = bitset.New(n)
		} else {
			u = c.prefix[i-1].Clone()
		}
		if s, ok := c.offered[c.minOrd+i]; ok {
			u.UnionInPlace(s)
		}
		c.prefix[i] = u
	}
}

// MustBuild is Build but panics on error; intended for embedded datasets
// and tests.
func (b *Builder) MustBuild() *Catalog {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// Calendar returns the academic calendar the catalog's schedule uses.
func (c *Catalog) Calendar() *term.Calendar { return c.cal }

// Len returns the number of courses.
func (c *Catalog) Len() int { return len(c.courses) }

// Course returns the course at dense index i.
func (c *Catalog) Course(i int) Course { return c.courses[i] }

// Index returns the dense index of a course ID.
func (c *Catalog) Index(id string) (int, bool) {
	i, ok := c.byID[id]
	return i, ok
}

// MustIndex is Index but panics when the ID is unknown.
func (c *Catalog) MustIndex(id string) int {
	i, ok := c.byID[id]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown course %q", id))
	}
	return i
}

// Canonical resolves a possibly sloppily-cased course ID to the catalog's
// spelling. An exact match always wins (and keeps its spelling even when
// another ID folds to the same string); otherwise a case-insensitive match
// resolves only when it is unambiguous. ok is false for unknown IDs — the
// caller decides whether that is an error.
func (c *Catalog) Canonical(id string) (string, bool) {
	if _, ok := c.byID[id]; ok {
		return id, true
	}
	if i, ok := c.foldID[strings.ToUpper(id)]; ok && i >= 0 {
		return c.courses[i].ID, true
	}
	return id, false
}

// ID returns the course ID at dense index i.
func (c *Catalog) ID(i int) string { return c.courses[i].ID }

// AppendIDJSON appends course i's ID as a JSON string literal, quoted
// and escaped exactly as encoding/json writes it. The literal is built
// once per catalog (catalogs never change after Build), so rendering a
// course set costs one copy per member.
func (c *Catalog) AppendIDJSON(dst []byte, i int) []byte {
	start := int32(0)
	if i > 0 {
		start = c.idEnd[i-1]
	}
	return append(dst, c.idJSON[start:c.idEnd[i]]...)
}

// IDs converts a course bitset to sorted course IDs.
func (c *Catalog) IDs(s bitset.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, c.courses[i].ID) })
	return out
}

// SetOf builds a course bitset from IDs, failing on unknown IDs.
func (c *Catalog) SetOf(ids ...string) (bitset.Set, error) {
	s := bitset.New(len(c.courses))
	for _, id := range ids {
		i, ok := c.byID[id]
		if !ok {
			return bitset.Set{}, fmt.Errorf("catalog: unknown course %q", id)
		}
		s.Add(i)
	}
	return s, nil
}

// MustSetOf is SetOf but panics on unknown IDs.
func (c *Catalog) MustSetOf(ids ...string) bitset.Set {
	s, err := c.SetOf(ids...)
	if err != nil {
		panic(err)
	}
	return s
}

// Compiled returns the compiled prerequisite condition of course i.
func (c *Catalog) Compiled(i int) expr.Compiled { return c.compiled[i] }

// PrereqSatisfied reports whether completed set x satisfies course i's
// prerequisite condition.
func (c *Catalog) PrereqSatisfied(i int, x bitset.Set) bool {
	return c.compiled[i].Satisfied(x)
}

// OfferedIn returns the set of courses offered in term t. The returned set
// must not be mutated.
func (c *Catalog) OfferedIn(t term.Term) bitset.Set {
	if s, ok := c.offered[t.Ordinal()]; ok {
		return s
	}
	return bitset.Set{}
}

// OfferedFrom returns the union of course offerings over every term in
// [from, to] (inclusive). The returned set must not be mutated. This is the
// C_offered quantity of the course-availability pruning strategy.
func (c *Catalog) OfferedFrom(from, to term.Term) bitset.Set {
	if c.minOrd < 0 || from.After(to) {
		return bitset.Set{}
	}
	lo, hi := from.Ordinal(), to.Ordinal()
	if hi < c.minOrd || lo > c.maxOrd {
		return bitset.Set{}
	}
	if lo < c.minOrd {
		lo = c.minOrd
	}
	if hi >= c.maxOrd {
		// Suffix union from lo covers everything to the end of the schedule.
		return c.suffix[lo-c.minOrd]
	}
	if lo <= c.minOrd {
		// Prefix union up to hi covers everything from the schedule start.
		return c.prefix[hi-c.minOrd]
	}
	// Rare general case: accumulate term by term.
	n := len(c.courses)
	u := bitset.New(n)
	for o := lo; o <= hi; o++ {
		if s, ok := c.offered[o]; ok {
			u.UnionInPlace(s)
		}
	}
	return u
}

// FirstTerm returns the earliest term with any offering, or a zero Term if
// the schedule is empty.
func (c *Catalog) FirstTerm() term.Term {
	return c.termAt(c.minOrd)
}

// LastTerm returns the latest term with any offering, or a zero Term if the
// schedule is empty.
func (c *Catalog) LastTerm() term.Term {
	return c.termAt(c.maxOrd)
}

func (c *Catalog) termAt(ord int) term.Term {
	if ord < 0 {
		return term.Term{}
	}
	// Reconstruct a Term with the catalog's calendar at the given ordinal.
	base := c.cal.MustTerm(ord/c.cal.TermsPerYear(), c.cal.Seasons()[ord%c.cal.TermsPerYear()])
	return base
}

// Options computes the paper's course-option set Y for a student with
// completed courses x in semester t:
//
//	Y = { c ∈ C − x | Q_c(x) ∧ t ∈ S_c }
//
// The result is a fresh set the caller may mutate.
func (c *Catalog) Options(x bitset.Set, t term.Term) bitset.Set {
	avail := c.OfferedIn(t).Diff(x)
	if avail.Empty() {
		return avail
	}
	// Drop offered courses whose prerequisites x does not satisfy.
	avail.ForEach(func(i int) {
		if !c.compiled[i].Satisfied(x) {
			avail.Remove(i)
		}
	})
	return avail
}

// OptionsArena is Options drawing the result's storage from a. The
// exploration engines call it once per node visited, so the arena turns a
// per-node allocation into a per-chunk one.
func (c *Catalog) OptionsArena(a *bitset.Arena, x bitset.Set, t term.Term) bitset.Set {
	avail := a.Diff(c.OfferedIn(t), x)
	if avail.Empty() {
		return avail
	}
	avail.ForEach(func(i int) {
		if !c.compiled[i].Satisfied(x) {
			avail.Remove(i)
		}
	})
	return avail
}

// OptionsInto is Options writing the result into dst, whose storage is
// reused (and grown only when too small), and returning it. A caller that
// derives one option set at a time, and drops each before asking for the
// next, then allocates nothing per status.
func (c *Catalog) OptionsInto(dst *bitset.Set, x bitset.Set, t term.Term) bitset.Set {
	dst.CopyFrom(c.OfferedIn(t))
	dst.DiffInPlace(x)
	dst.ForEach(func(i int) {
		if !c.compiled[i].Satisfied(x) {
			dst.Remove(i)
		}
	})
	return *dst
}

// Unreachable returns the IDs of courses that can never be taken regardless
// of schedule: courses whose prerequisite condition is unsatisfiable even if
// the student completed every other reachable course. It is a lint for
// registrar data (e.g. mutually-recursive prerequisites).
func (c *Catalog) Unreachable() []string {
	n := len(c.courses)
	reach := bitset.New(n)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !reach.Contains(i) && c.compiled[i].Satisfied(reach) {
				reach.Add(i)
				changed = true
			}
		}
	}
	var out []string
	for i := 0; i < n; i++ {
		if !reach.Contains(i) {
			out = append(out, c.courses[i].ID)
		}
	}
	return out
}

// NeverOffered returns the IDs of courses with an empty schedule.
func (c *Catalog) NeverOffered() []string {
	var out []string
	for _, course := range c.courses {
		if len(course.Offered) == 0 {
			out = append(out, course.ID)
		}
	}
	return out
}

// Workloads returns the per-index workload vector w.
func (c *Catalog) Workloads() []float64 {
	out := make([]float64, len(c.courses))
	for i, course := range c.courses {
		out[i] = course.Workload
	}
	return out
}
