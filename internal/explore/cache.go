package explore

import (
	"reflect"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// termCache holds the engine's per-term derived state: the union of course
// offerings over the remaining course-taking semesters, which both the
// availability strategy and the stuck-node check consult once per expanded
// node but which only depends on the node's term. One cache lives per
// engine (engines are single-goroutine; parallel workers build their own),
// so no locking is needed.
type termCache struct {
	cat        *catalog.Catalog
	lastTaking term.Term
	offered    map[int]bitset.Set
	// scratch is reused by the cached availability check to build
	// completed ∪ offered without a per-node allocation. Callees must not
	// retain it (degree.Memoize keys by value and does not).
	scratch bitset.Set
}

func newTermCache(cat *catalog.Catalog, end term.Term) *termCache {
	return &termCache{cat: cat, lastTaking: end.Prev(), offered: map[int]bitset.Set{}}
}

// offeredFrom returns the union of course offerings over [t, end−1],
// computed once per distinct term. The returned set must not be mutated.
func (c *termCache) offeredFrom(t term.Term) bitset.Set {
	o := t.Ordinal()
	if s, ok := c.offered[o]; ok {
		return s
	}
	s := c.cat.OfferedFrom(t, c.lastTaking)
	c.offered[o] = s
	return s
}

// cachedAvailPruner is AvailPruner with the engine's per-term offered-union
// cache and memoised goal spliced in. It computes exactly the base
// strategy's X_e = X ∪ C_offered test — only the offered union comes from
// the cache and the union is built in reusable scratch — so admissibility
// (§4.2.2) and the Table 1 prune split are untouched.
type cachedAvailPruner struct {
	base AvailPruner
	tc   *termCache
	goal degree.Goal
}

// Name implements Pruner.
func (p *cachedAvailPruner) Name() string { return PrunerAvailName }

// Check implements Pruner.
func (p *cachedAvailPruner) Check(st status.Status, end term.Term) (bool, int) {
	lastTaking := end.Prev()
	if st.Term.After(lastTaking) {
		return !p.goal.Satisfied(st.Completed), 0
	}
	if p.base.PrereqAware {
		acc := st.Completed.Clone()
		for t := st.Term; !t.After(lastTaking); t = t.Next() {
			acc.UnionInPlace(p.base.Cat.Options(acc, t))
		}
		return !p.goal.Satisfied(acc), 0
	}
	sc := &p.tc.scratch
	sc.CopyFrom(st.Completed)
	sc.UnionInPlace(p.tc.offeredFrom(st.Term))
	return !p.goal.Satisfied(*sc), 0
}

// wrapPruner splices the engine's caches into the known paper strategies:
// TimePruner gets the memoised goal (so left_i max-flow runs hit the
// Remaining cache) and AvailPruner gets the per-term offered-union cache.
// Unknown pruner implementations pass through untouched.
func (e *engine) wrapPruner(p Pruner) Pruner {
	switch pr := p.(type) {
	case TimePruner:
		pr.Goal = e.memoised(pr.Goal)
		return pr
	case *TimePruner:
		q := *pr
		q.Goal = e.memoised(q.Goal)
		return q
	case AvailPruner:
		return &cachedAvailPruner{base: pr, tc: e.tc, goal: e.memoised(pr.Goal)}
	case *AvailPruner:
		return &cachedAvailPruner{base: *pr, tc: e.tc, goal: e.memoised(pr.Goal)}
	default:
		return p
	}
}

// memoised returns the engine's shared memoising wrapper when g is the
// engine's own goal, memoised or not (the common case: PaperPruners and
// classify share one goal, and sharing the wrapper shares the cache), or a
// fresh per-engine wrapper otherwise. A pruner's goal the caller memoised
// is never reused as it is: parallel workers share the caller's pruners,
// and a wrapper is single-goroutine.
func (e *engine) memoised(g degree.Goal) degree.Goal {
	if g == nil {
		return nil
	}
	if sameGoal(degree.Unwrap(g), degree.Unwrap(e.rawGoal)) {
		return e.goal
	}
	return degree.Memoize(degree.Unwrap(g))
}

// sameGoal reports whether two goals are the identical value, guarding the
// interface comparison against non-comparable dynamic types.
func sameGoal(a, b degree.Goal) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}
