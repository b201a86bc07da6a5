// Package degree models educational goals: the predicate a learning path's
// final enrollment status must satisfy (paper §4.2), and the left_i lower
// bound — the minimum number of further courses needed to meet the goal —
// that drives the time-based pruning strategy (paper §4.2.1, eq. 1).
//
// Three goal forms are provided:
//
//   - CourseSet: complete every course in a given set ("complete these
//     programming courses").
//   - Expr: an arbitrary boolean expression over completed courses, the
//     paper's most general "goal requirement as a boolean expression".
//   - Requirement: a degree requirement of counted groups ("7 core courses
//     and any 5 electives"), where a completed course fills at most one
//     slot; left_i is computed with Ford–Fulkerson max-flow following
//     Parameswaran et al. (TOIS 2011), the paper's reference [3].
package degree

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/maxflow"
)

// Goal is a predicate over completed-course sets together with an
// admissible estimate of the work remaining.
//
// Contract: Satisfied and Remaining depend only on x ∩ Relevant(). Courses
// outside the relevant set can neither help nor hinder the goal, so
// Satisfied(x) == Satisfied(x ∩ Relevant()) and likewise for Remaining.
// Memoize keys its cache by that projection, and the exploration engine's
// deadline-semester fold tests one selection per distinct relevant subset
// on the strength of it; a Goal that breaks it gets wrong answers from
// both.
type Goal interface {
	// Satisfied reports whether completed set x meets the goal.
	Satisfied(x bitset.Set) bool
	// Remaining returns a lower bound on how many further courses must be
	// completed, beyond x, to satisfy the goal (the paper's left_i). It
	// must never overestimate — pruning soundness (Lemma 1) depends on it —
	// and must return 0 when Satisfied(x). A return of -1 means the goal is
	// unsatisfiable from any superset of x.
	Remaining(x bitset.Set) int
	// Relevant returns the set of courses that can contribute to the goal
	// (see the contract above). The caller owns the returned set.
	Relevant() bitset.Set
	// String describes the goal for logs and UIs.
	String() string
}

// CourseSet is the complete-all-of-D goal.
type CourseSet struct {
	cat     *catalog.Catalog
	desired bitset.Set
}

// NewCourseSet builds a CourseSet goal from course IDs.
func NewCourseSet(cat *catalog.Catalog, ids ...string) (*CourseSet, error) {
	s, err := cat.SetOf(ids...)
	if err != nil {
		return nil, err
	}
	return &CourseSet{cat: cat, desired: s}, nil
}

// Satisfied implements Goal.
func (g *CourseSet) Satisfied(x bitset.Set) bool { return g.desired.SubsetOf(x) }

// Remaining implements Goal: |D − X|, computed without allocating the
// difference set (this runs once per expanded node in time-based pruning).
func (g *CourseSet) Remaining(x bitset.Set) int { return g.desired.DiffLen(x) }

// Relevant implements Goal.
func (g *CourseSet) Relevant() bitset.Set { return g.desired.Clone() }

// String implements Goal.
func (g *CourseSet) String() string {
	return fmt.Sprintf("complete {%s}", strings.Join(g.cat.IDs(g.desired), ", "))
}

// memoProfitable: a subset test and a popcount difference are cheaper than
// any memo lookup could be.
func (g *CourseSet) memoProfitable() bool { return false }

// Expr is a boolean-expression goal compiled to DNF.
type Expr struct {
	src      string
	compiled expr.Compiled
}

// NewExpr builds an Expr goal from the textual prerequisite language, e.g.
// "(COSI 11A and COSI 12B) or COSI 21A".
func NewExpr(cat *catalog.Catalog, src string) (*Expr, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	comp, err := expr.Compile(e, cat.Len(), func(id string) (int, error) {
		i, ok := cat.Index(id)
		if !ok {
			return 0, fmt.Errorf("degree: goal references unknown course %q", id)
		}
		return i, nil
	})
	if err != nil {
		return nil, err
	}
	return &Expr{src: e.String(), compiled: comp}, nil
}

// Satisfied implements Goal.
func (g *Expr) Satisfied(x bitset.Set) bool { return g.compiled.Satisfied(x) }

// Remaining implements Goal: the cheapest DNF clause completion.
func (g *Expr) Remaining(x bitset.Set) int { return g.compiled.MinAdditional(x) }

// Relevant implements Goal.
func (g *Expr) Relevant() bitset.Set { return g.compiled.Union() }

// String implements Goal.
func (g *Expr) String() string { return "satisfy " + g.src }

// memoProfitable: evaluation is linear in the clause count, so caching only
// pays once the DNF is wide enough to out-cost the key projection.
func (g *Expr) memoProfitable() bool { return g.compiled.NumClauses() > 8 }

// Group is one counted clause of a degree requirement: complete at least
// Count courses drawn from Courses.
type Group struct {
	Name    string
	Count   int
	Courses bitset.Set
}

// Requirement is a conjunction of counted groups where each completed
// course may fill at most one slot across all groups (the standard
// no-double-counting rule).
type Requirement struct {
	cat    *catalog.Catalog
	groups []Group
	total  int
	rel    bitset.Set
	// disjoint records whether the group pools are pairwise disjoint,
	// decided once at construction so matched need not re-derive it per
	// call on the exploration hot path.
	disjoint bool
}

// GroupSpec names a group by course IDs for NewRequirement.
type GroupSpec struct {
	Name    string
	Count   int
	Courses []string
}

// NewRequirement builds a Requirement. Each group must need at least one
// course, no more than its pool offers.
func NewRequirement(cat *catalog.Catalog, specs ...GroupSpec) (*Requirement, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("degree: requirement needs at least one group")
	}
	r := &Requirement{cat: cat, rel: bitset.New(cat.Len())}
	for _, sp := range specs {
		pool, err := cat.SetOf(sp.Courses...)
		if err != nil {
			return nil, fmt.Errorf("degree: group %q: %v", sp.Name, err)
		}
		if sp.Count <= 0 {
			return nil, fmt.Errorf("degree: group %q: count %d must be positive", sp.Name, sp.Count)
		}
		if sp.Count > pool.Len() {
			return nil, fmt.Errorf("degree: group %q: count %d exceeds pool of %d courses", sp.Name, sp.Count, pool.Len())
		}
		r.groups = append(r.groups, Group{Name: sp.Name, Count: sp.Count, Courses: pool})
		r.total += sp.Count
		r.rel.UnionInPlace(pool)
	}
	r.disjoint = true
	for i := 0; i < len(r.groups) && r.disjoint; i++ {
		for j := i + 1; j < len(r.groups); j++ {
			if r.groups[i].Courses.Intersects(r.groups[j].Courses) {
				r.disjoint = false
				break
			}
		}
	}
	return r, nil
}

// Groups returns the requirement's groups (shared storage; do not mutate).
func (r *Requirement) Groups() []Group { return r.groups }

// TotalSlots returns the total number of requirement slots.
func (r *Requirement) TotalSlots() int { return r.total }

// matched computes the maximum number of requirement slots that the courses
// in x can fill, assigning each course to at most one group, via max-flow.
func (r *Requirement) matched(x bitset.Set) int {
	if r.disjoint {
		// Fast path: each course belongs to exactly one group, so the
		// optimal assignment is per-group clamping — no allocation, no flow.
		m := 0
		for _, grp := range r.groups {
			have := x.IntersectLen(grp.Courses)
			if have > grp.Count {
				have = grp.Count
			}
			m += have
		}
		return m
	}
	useful := x.Intersect(r.rel)
	nc := useful.Len()
	if nc == 0 {
		return 0
	}
	// General case: source → course (1) → group → sink (count).
	ng := len(r.groups)
	g := maxflow.New(nc + ng + 2)
	src, sink := nc+ng, nc+ng+1
	courses := useful.Members()
	for ci, course := range courses {
		g.AddEdge(src, ci, 1)
		for gi, grp := range r.groups {
			if grp.Courses.Contains(course) {
				g.AddEdge(ci, nc+gi, 1)
			}
		}
	}
	for gi, grp := range r.groups {
		g.AddEdge(nc+gi, sink, grp.Count)
	}
	return g.MaxFlow(src, sink)
}

// Satisfied implements Goal: every slot can be filled from x.
func (r *Requirement) Satisfied(x bitset.Set) bool { return r.matched(x) == r.total }

// Remaining implements Goal: unfilled slots after an optimal assignment of
// x's courses. This is exact for disjoint groups and an admissible lower
// bound in general (each new course fills at most one slot).
func (r *Requirement) Remaining(x bitset.Set) int { return r.total - r.matched(x) }

// Relevant implements Goal.
func (r *Requirement) Relevant() bitset.Set { return r.rel.Clone() }

// memoProfitable: disjoint groups match with per-group popcounts (no flow
// network), so only overlapping requirements repay the cache; for them each
// miss is a Ford–Fulkerson run and the memo is the whole point.
func (r *Requirement) memoProfitable() bool { return !r.disjoint }

// String implements Goal.
func (r *Requirement) String() string {
	parts := make([]string, len(r.groups))
	for i, g := range r.groups {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("group %d", i+1)
		}
		parts[i] = fmt.Sprintf("%d of %s (%d courses)", g.Count, name, g.Courses.Len())
	}
	return "degree: " + strings.Join(parts, " + ")
}

// memoLimit bounds a memoised goal's cache so adversarial workloads cannot
// grow it without bound; past the limit misses are computed but not stored.
const memoLimit = 1 << 20

// memoGoal caches Satisfied/Remaining answers keyed by the completed set's
// goal-relevant projection. See Memoize.
type memoGoal struct {
	base    Goal
	rel     bitset.Set
	scratch bitset.Set
	cache   map[bitset.CompactKey]memoEntry
}

type memoEntry struct {
	rem            int
	sat            bool
	hasRem, hasSat bool
}

// Memoize wraps g with a cache of Satisfied and Remaining answers, keyed by
// x ∩ g.Relevant(). By the Goal contract both predicates depend only on
// that projection, so the cache is exact; for Requirement goals it turns
// repeated Ford–Fulkerson runs over equal relevant sets into O(1) lookups.
// The projection is computed into reused scratch storage and the key is a
// value type, so a hit allocates nothing and never retains the caller's set.
//
// The wrapper is NOT safe for concurrent use — give each goroutine its own
// (the exploration engine wraps per worker). Memoizing an already-memoised
// goal returns it unchanged; Memoize(nil) is nil.
//
// Goals whose predicates are already cheap — a bare course set, a disjoint
// requirement (no max-flow), a small expression — are returned unwrapped:
// for them the key projection and map lookup cost more than recomputing,
// and the cache map's growth dominates the engine's per-run allocations.
// Goal implementations outside this package are wrapped unconditionally,
// since their cost is unknown.
func Memoize(g Goal) Goal {
	if g == nil {
		return nil
	}
	if _, ok := g.(*memoGoal); ok {
		return g
	}
	if c, ok := g.(interface{ memoProfitable() bool }); ok && !c.memoProfitable() {
		return g
	}
	return &memoGoal{base: g, rel: g.Relevant(), cache: map[bitset.CompactKey]memoEntry{}}
}

// Unwrap returns the goal a Memoize wrapper caches answers for, or g
// itself when g is not such a wrapper. A wrapper is single-goroutine, so
// code that fans a goal out to goroutines gives each the unwrapped goal to
// memoise on its own.
func Unwrap(g Goal) Goal {
	if m, ok := g.(*memoGoal); ok {
		return m.base
	}
	return g
}

func (m *memoGoal) key(x bitset.Set) bitset.CompactKey {
	m.scratch.CopyFrom(x)
	m.scratch.IntersectInPlace(m.rel)
	return m.scratch.CompactKey()
}

// Satisfied implements Goal.
func (m *memoGoal) Satisfied(x bitset.Set) bool {
	k := m.key(x)
	e, ok := m.cache[k]
	if ok && e.hasSat {
		return e.sat
	}
	e.sat = m.base.Satisfied(x)
	e.hasSat = true
	if ok || len(m.cache) < memoLimit {
		m.cache[k] = e
	}
	return e.sat
}

// Remaining implements Goal.
func (m *memoGoal) Remaining(x bitset.Set) int {
	k := m.key(x)
	e, ok := m.cache[k]
	if ok && e.hasRem {
		return e.rem
	}
	e.rem = m.base.Remaining(x)
	e.hasRem = true
	if ok || len(m.cache) < memoLimit {
		m.cache[k] = e
	}
	return e.rem
}

// Relevant implements Goal.
func (m *memoGoal) Relevant() bitset.Set { return m.base.Relevant() }

// String implements Goal.
func (m *memoGoal) String() string { return m.base.String() }

// Achievable reports whether the goal can be met at all given the courses
// offered anywhere in the catalog's schedule on or after the given start —
// a cheap static feasibility lint before exploration begins.
func Achievable(g Goal, available bitset.Set) bool {
	left := g.Remaining(available)
	return left == 0
}

// Assign computes an optimal assignment of the completed courses in x to
// requirement slots and returns, for each assigned course index, the
// index (into Groups) of the group it fills. Unassigned relevant courses
// (surplus beyond a group's count) are absent from the map. The
// assignment maximises filled slots, consistent with matched/Remaining.
func (r *Requirement) Assign(x bitset.Set) map[int]int {
	courses := x.Intersect(r.rel).Members()
	// Flatten groups into unit slots.
	var slotGroup []int
	for gi, g := range r.groups {
		for k := 0; k < g.Count; k++ {
			slotGroup = append(slotGroup, gi)
		}
	}
	nSlots := len(slotGroup)
	matchSlot := make([]int, nSlots) // slot -> course list index, -1 free
	for i := range matchSlot {
		matchSlot[i] = -1
	}
	visited := make([]int, nSlots)
	for i := range visited {
		visited[i] = -1
	}
	var try func(ci, stamp int) bool
	try = func(ci, stamp int) bool {
		for si, gi := range slotGroup {
			if visited[si] == stamp || !r.groups[gi].Courses.Contains(courses[ci]) {
				continue
			}
			visited[si] = stamp
			if matchSlot[si] == -1 || try(matchSlot[si], stamp) {
				matchSlot[si] = ci
				return true
			}
		}
		return false
	}
	for ci := range courses {
		try(ci, ci)
	}
	out := make(map[int]int)
	for si, ci := range matchSlot {
		if ci >= 0 {
			out[courses[ci]] = slotGroup[si]
		}
	}
	return out
}
