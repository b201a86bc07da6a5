package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file implements the many-roots DAG substrate (DESIGN.md §17):
// an interner + tally memo keyed by (catalog, goal, deadline, options)
// that answers goal-path counts for MANY start statuses. A
// cohort run replans thousands of members against one catalog variant;
// their reachable statuses overlap massively (curricula are shallow and
// wide), so the cost of the whole cohort scales with the number of
// DISTINCT statuses across all members, not with members × rebuilds.
//
// Differences from the one-root counting core (dag_count.go):
//
//   - Tallies are stored per status, not per run: sharedNode carries a
//     (horizon+2)-wide vector — total maximal paths, plus goal paths for
//     every deadline in [end, end+horizon] — filled by a memoised
//     depth-first DP. The one forward-prefix trick does not apply (each
//     member roots the DP somewhere else), but each distinct status is
//     still expanded at most once for the life of the counter.
//   - Storage is the generic slab/table machinery (dag_intern.go) with
//     sharedNode payloads, plus a vector slab so a million nodes cost
//     thousands of allocations.
//   - The counter is safe for concurrent use: lookups of already-built
//     roots take a read lock; building takes the write lock, so one
//     member's miss never blocks another member's hit.
//   - Memory is bounded by MaxStatuses: a build that would exceed the
//     hard cap (2x, saturating, so a budget of MaxInt64 means no cap)
//     aborts and evicts; a build that lands between the budget and the
//     cap completes, answers, and then evicts — the next call starts
//     cold, which trades latency for the bound.
//   - Tallies saturate at MaxInt64, as every counting run's do.
//
// The counter also scores what-if candidates (whatif.go): one uncapped
// counter per request, horizon 0, its engine carrying the request's run
// control. A build then charges that control as a counting run does —
// one node per created status, one path per terminal fold, a stop check
// between selections — and a stop aborts the build. Cohort counters
// carry no control; their builds check the context periodically.

// defaultSharedStatuses bounds a SharedCounter's interned statuses when
// the caller passes no budget. At ~200 bytes per interned status
// (table slot + node + vector + arena sets) this is roughly 200 MB.
const defaultSharedStatuses = 1 << 20

// sharedNode is one interned status's memoised tally vector. vec[0] is
// the number of maximal paths from the status under the farthest
// deadline; vec[1+h] the number of goal-reaching paths under deadline
// end+h. The status itself is not retained — only the key identifies it.
type sharedNode struct {
	vec []int64
}

// Vector slab chunks grow geometrically from vecChunkMin to vecChunk
// int64s, like the node slab's chunks.
const (
	vecChunkMin = 1 << 9
	vecChunk    = 1 << 15
)

// vecSlab bulk-allocates tally vectors. Like nodeSlabOf, chunks are
// never reallocated, so handed-out vectors stay valid until the counter
// is evicted wholesale.
type vecSlab struct {
	buf []int64
}

func (s *vecSlab) alloc(stride int) []int64 {
	if cap(s.buf)-len(s.buf) < stride {
		n := max(min(2*cap(s.buf), vecChunk), vecChunkMin, stride)
		s.buf = make([]int64, 0, n)
	}
	v := s.buf[len(s.buf) : len(s.buf)+stride : len(s.buf)+stride]
	s.buf = s.buf[:len(s.buf)+stride]
	return v
}

// SharedStats snapshots a SharedCounter's lifetime tallies.
type SharedStats struct {
	// Statuses is the current interned-status count; Hits counts root
	// queries answered without building anything.
	Statuses, Hits int64
	// Builds counts root queries that ran the DP; NewStatuses and
	// ReusedStatuses split the statuses those builds touched into
	// first-sight expansions and memo hits.
	Builds, NewStatuses, ReusedStatuses int64
	// Evictions counts wholesale resets (budget overruns).
	Evictions int64
}

// SharedCounts is one root query's answer.
type SharedCounts struct {
	// Paths is the number of maximal paths from the start status under
	// the farthest deadline (end+horizon); GoalPaths[h] the number of
	// goal-reaching paths under deadline end+h, for h = 0..horizon.
	Paths     int64
	GoalPaths []int64
	// NewStatuses / ReusedStatuses split the statuses this query's build
	// touched; Hit reports the root itself was already interned (a pure
	// lookup — NewStatuses is then 0).
	NewStatuses, ReusedStatuses int64
	Hit                         bool
}

// SharedCounter is the long-lived substrate. Construct one per
// (catalog variant, goal, end, horizon, options) — NewSharedCounter
// pins those — and query it with any number of start statuses.
type SharedCounter struct {
	mu sync.RWMutex

	cat     *catalog.Catalog
	end     term.Term // base deadline; the engine's deadline is end+horizon
	horizon int
	goal    degree.Goal
	pruners []Pruner
	opt     Options

	maxStatuses int64

	e    *engine
	tab  internTableOf[sharedNode]
	slab nodeSlabOf[sharedNode]
	vecs vecSlab

	// Per-depth scratch sets for the DFS: selections hands out
	// wscr[d] at depth d (engine.selScratch), and uscr[d] holds the
	// candidate child's completed union for the memo probe. Pointers,
	// not values — growing the slices must not move the set an inner
	// frame still references.
	wscr, uscr []*bitset.Set

	// steps gates the periodic context check during builds.
	steps int64
	// Per-build split, folded into stats when the build finishes.
	newN, reusedN int64

	// hits counts read-locked root lookups, so the hot path never takes
	// the write lock; the remaining stats are written under it.
	hits  atomic.Int64
	stats SharedStats
}

// NewSharedCounter builds an empty counter for the given variant: counts
// answer goal-path totals for every deadline in [end, end+horizon].
// maxStatuses bounds the interned statuses (0 = a default of ~1M); goal
// is required. The counter is safe for concurrent use.
func NewSharedCounter(cat *catalog.Catalog, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options, maxStatuses int64) (*SharedCounter, error) {
	switch {
	case cat == nil:
		return nil, fmt.Errorf("explore: NewSharedCounter: nil catalog")
	case goal == nil:
		return nil, fmt.Errorf("explore: NewSharedCounter requires a goal")
	case end.IsZero():
		return nil, fmt.Errorf("explore: NewSharedCounter: zero end term")
	case end.Calendar() != cat.Calendar():
		return nil, fmt.Errorf("explore: NewSharedCounter: end term calendar differs from catalog calendar")
	case horizon < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative horizon %d", horizon)
	case maxStatuses < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative status budget %d", maxStatuses)
	case opt.MaxPerTerm < 0:
		return nil, fmt.Errorf("explore: NewSharedCounter: negative MaxPerTerm %d", opt.MaxPerTerm)
	}
	if maxStatuses == 0 {
		maxStatuses = defaultSharedStatuses
	}
	c := &SharedCounter{
		cat: cat, end: end, horizon: horizon,
		goal: goal, pruners: pruners, opt: opt,
		maxStatuses: maxStatuses,
	}
	c.reset()
	return c, nil
}

// reset drops every interned status and the engine (whose arena holds
// their completed/option sets) wholesale. Caller holds mu.
func (c *SharedCounter) reset() {
	c.e = newEngine(c.cat, c.end.Add(c.horizon), c.goal, c.pruners, c.opt)
	c.tab = internTableOf[sharedNode]{}
	c.slab = nodeSlabOf[sharedNode]{}
	c.vecs = vecSlab{}
	c.wscr, c.uscr = nil, nil
}

// Stats snapshots the lifetime tallies.
func (c *SharedCounter) Stats() SharedStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.Statuses = int64(c.tab.n)
	s.Hits = c.hits.Load()
	return s
}

// Horizon returns the counter's deadline span.
func (c *SharedCounter) Horizon() int { return c.horizon }

// Counts answers one start status: the number of maximal paths (under
// the farthest deadline) and of goal-reaching paths under every deadline
// in [end, end+horizon]. The first query from a region of the status
// space pays for the DP over the statuses reachable from it; later
// queries from overlapping regions reuse every status already built,
// and a repeated start is a pure read-locked lookup.
//
// Counts are bit-identical to a per-deadline GoalCount run from the same
// start: classification and enumeration are the same engine code, and
// the per-deadline split follows the multi-deadline argument (see
// MultiResult). Unlike budgeted one-shot runs there are no partial
// results: a cancelled or over-budget build returns an error (already
// built subtrees are kept for the next caller unless the hard cap was
// hit, which evicts).
func (c *SharedCounter) Counts(ctx context.Context, start status.Status) (SharedCounts, error) {
	if start.Term.IsZero() || start.Term.Calendar() != c.cat.Calendar() {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: bad start term %v", start.Term)
	}
	if !start.Term.Before(c.end) {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: end semester %v is not after start %v", c.end, start.Term)
	}
	key := start.MapKey()
	h := dagHash(key)

	c.mu.RLock()
	if n := c.tab.lookup(h, key); n != nil {
		out := c.answer(n.vec, true)
		c.mu.RUnlock()
		c.hits.Add(1)
		return out, nil
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.tab.lookup(h, key); n != nil { // raced with another builder
		c.hits.Add(1)
		return c.answer(n.vec, true), nil
	}
	c.newN, c.reusedN = 0, 0
	c.stats.Builds++
	vec, err := c.build(ctx, h, key, start, 0)
	c.stats.NewStatuses += c.newN
	c.stats.ReusedStatuses += c.reusedN
	if err != nil {
		if int64(c.tab.n) >= c.hardCap() {
			c.stats.Evictions++
			c.reset()
		}
		return SharedCounts{}, err
	}
	out := c.answer(vec, false)
	out.NewStatuses, out.ReusedStatuses = c.newN, c.reusedN
	if int64(c.tab.n) > c.maxStatuses {
		// Over budget: the answer stands (every tally is complete), but
		// the substrate is dropped so memory returns to the bound.
		c.stats.Evictions++
		c.reset()
	}
	return out, nil
}

func (c *SharedCounter) answer(vec []int64, hit bool) SharedCounts {
	out := SharedCounts{Paths: vec[0], GoalPaths: make([]int64, c.horizon+1), Hit: hit}
	copy(out.GoalPaths, vec[1:])
	return out
}

// errSharedBudget aborts a build that would exceed the hard status cap.
var errSharedBudget = fmt.Errorf("explore: shared counter over status budget")

// hardCap is the interned-status count at which a build aborts: twice the
// budget, saturating.
func (c *SharedCounter) hardCap() int64 { return satMul(2, c.maxStatuses) }

// scratch ensures the per-depth scratch sets exist through depth d.
func (c *SharedCounter) scratch(d int) {
	for len(c.wscr) <= d {
		c.wscr = append(c.wscr, new(bitset.Set))
		c.uscr = append(c.uscr, new(bitset.Set))
	}
}

// build computes the tally vector for a status not yet interned, interning
// it on completion (never before: a cancelled build must not leave
// half-filled vectors behind). Caller holds the write lock and has
// already missed on (h, key).
func (c *SharedCounter) build(ctx context.Context, h uint64, key status.MapKey, st status.Status, depth int) ([]int64, error) {
	if c.steps++; c.steps&255 == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if int64(c.tab.n) >= c.hardCap() {
			return nil, errSharedBudget
		}
	}
	e := c.e
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		return nil, errStopRun
	}
	stride := c.horizon + 2
	vec := c.vecs.alloc(stride)
	endOrd := c.end.Ordinal()

	cls, minTake := e.classify(st)
	switch cls {
	case classGoal:
		e.notePaths(1)
		vec[0] = 1
		for hz := clampHz(st.Term.Ordinal()-endOrd, c.horizon); hz <= c.horizon; hz++ {
			vec[1+hz] = 1
		}
	case classDeadline:
		e.notePaths(1)
		vec[0] = 1
	case classPruned:
		// zeros
	case classExpand:
		c.scratch(depth)
		next := st.Term.Next()
		ord := int32(next.Ordinal())
		goalFrom := clampHz(next.Ordinal()-endOrd, c.horizon)
		lastLevel := !next.Before(e.end)
		if lastLevel {
			if sel, goalSel, ok := e.lastLevelCounts(st, minTake); ok {
				// The deadline semester in closed form, as counting folds it.
				if e.ctl.interrupted() {
					return nil, errStopRun
				}
				e.notePaths(sel)
				vec[0] = sel
				for hz := goalFrom; hz <= c.horizon; hz++ {
					vec[1+hz] = goalSel
				}
				break
			}
		}
		childless := true
		e.selScratch = c.wscr[depth]
		err := e.selections(st, minTake, func(sel bitset.Set) error {
			if e.ctl.interrupted() {
				return errStopRun
			}
			childless = false
			u := c.uscr[depth]
			u.CopyFrom(st.Completed)
			u.UnionInPlace(sel)
			// Terminal children fold at the edge, exactly as counting does:
			// their whole contribution is known here, so they are never
			// interned.
			if e.goal.Satisfied(*u) {
				e.notePaths(1)
				vec[0] = satAdd(vec[0], 1)
				for hz := goalFrom; hz <= c.horizon; hz++ {
					vec[1+hz] = satAdd(vec[1+hz], 1)
				}
				return nil
			}
			if lastLevel {
				e.notePaths(1)
				vec[0] = satAdd(vec[0], 1)
				return nil
			}
			ck := status.MapKey{Ord: ord, Set: u.CompactKey()}
			chash := dagHash(ck)
			if n := c.tab.lookup(chash, ck); n != nil {
				c.reusedN++
				addVec(vec, n.vec)
				return nil
			}
			x := e.arena.Union(st.Completed, sel)
			cst := status.Status{Term: next, Completed: x, Options: e.cat.OptionsArena(&e.arena, x, next)}
			cv, err := c.build(ctx, chash, ck, cst, depth+1)
			// The recursion repointed selScratch at its own depth's set;
			// restore ours before selections hands out the next sel.
			e.selScratch = c.wscr[depth]
			if err != nil {
				return err
			}
			addVec(vec, cv)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if childless {
			// Natural dead end: a generated maximal path that reaches no
			// goal under any deadline.
			e.notePaths(1)
			vec[0] = 1
		}
	}

	c.newN++
	n := c.slab.alloc()
	n.vec = vec
	c.tab.insert(h, key, n)
	return vec, nil
}

func addVec(dst, src []int64) {
	for i, v := range src {
		dst[i] = satAdd(dst[i], v)
	}
}

// clampHz maps a goal semester's offset past the base deadline to the
// first horizon bucket it counts toward (goal reached at or before end
// counts toward every bucket).
func clampHz(d, horizon int) int {
	if d < 0 {
		return 0
	}
	if d > horizon {
		return horizon + 1 // counts toward nothing (cannot happen: folds stop at end+horizon)
	}
	return d
}
