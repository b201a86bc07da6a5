package explore

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file implements the many-roots DAG substrate (DESIGN.md §17): a
// tally memo over interned statuses, pinned to one (catalog, goal,
// deadline, options) variant, that answers goal-path counts for MANY start
// statuses. A cohort replans thousands of members against one variant;
// their reachable statuses overlap massively (curricula are shallow and
// wide), so a cohort costs its DISTINCT statuses, not members × rebuilds.
//
// Counting has one status layout and two traversals. The forward DP
// (dag_count.go) pushes path prefixes from one root, level by level. The
// counter memoises each status's tally vector — total maximal paths, then
// goal paths for every deadline in [end, end+horizon] — depth first, so a
// root reuses every status an earlier build reached. Both keep a
// semester's statuses as flat records in a countStripe; here a record is
// the tally vector, then the completed-set words, and holds no pointer.
//
//   - Lookups of built roots take the read lock; builds take the write
//     lock, so one member's miss never blocks another member's hit.
//   - MaxStatuses bounds memory: a build that would exceed the hard cap
//     (2x, saturating, so MaxInt64 means no cap) aborts and evicts; one
//     that lands between the budget and the cap answers, then evicts.
//   - Tallies saturate at MaxInt64, as every counting run's do.
//
// What-if (whatif.go) scores its candidates with one uncapped counter per
// request, horizon 0, whose engine carries the request's run control. A
// build then charges it as a counting run does — one node per created
// status, one path per terminal fold, a stop check between selections —
// and a stop aborts the build. Cohort counters carry no control; their
// builds check the context periodically.

// defaultSharedStatuses bounds a SharedCounter's interned statuses when
// the caller passes no budget. A status costs its record, (horizon + 2 +
// set words) × 8 bytes (40 for Brandeis at horizon 2), plus its index slot
// and the doubling slices' slack: ~50–100 bytes, so this is ~50–100 MB.
const defaultSharedStatuses = 1 << 20

// sharedFrame is one depth's scratch in the depth-first build: the
// selection set (engine.selScratch), the candidate child's completed and
// option sets, and the tally vector of the status being built there.
type sharedFrame struct {
	sel, child, opts bitset.Set
	vec              []uint64
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

	end         term.Term // base deadline; the engine's deadline is end+horizon
	horizon     int
	maxStatuses int64

	e *engine // pins the variant: catalog, deadline, goal, pruners, options
	// levels[lastOrd−o] holds semester o's statuses, lastOrd being the
	// engine's deadline − 1; n counts them all; stride is the set words.
	levels          []countStripe
	lastOrd, stride int
	n               int64

	// frames[d] is the scratch of a build's depth d.
	frames []sharedFrame

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
	return &SharedCounter{
		end: end, horizon: horizon, maxStatuses: maxStatuses,
		e:       newEngine(cat, end.Add(horizon), goal, pruners, opt),
		lastOrd: end.Add(horizon).Ordinal() - 1, stride: (cat.Len() + 63) / 64,
	}, nil
}

// reset drops every interned status and the engine wholesale. Caller
// holds mu.
func (c *SharedCounter) reset() {
	e := c.e
	c.e = newEngine(e.cat, e.end, e.rawGoal, e.rawPruners, e.opt)
	c.levels, c.n = nil, 0
}

// Stats snapshots the lifetime tallies.
func (c *SharedCounter) Stats() SharedStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.Statuses, s.Hits = c.n, c.hits.Load()
	return s
}

// Horizon returns the counter's deadline span.
func (c *SharedCounter) Horizon() int { return c.horizon }

// Counts answers one start status: the number of maximal paths (under
// the farthest deadline) and of goal-reaching paths under every deadline
// in [end, end+horizon]. A query pays for the statuses reachable from its
// start that no earlier query built; a repeated start is a pure
// read-locked lookup. Counts are bit-identical to a per-deadline
// GoalCount run from the same start (see MultiResult). There are no
// partial results: a cancelled or over-budget build returns an error,
// keeping the subtrees it completed unless the hard cap was hit, which
// evicts.
func (c *SharedCounter) Counts(ctx context.Context, start status.Status) (SharedCounts, error) {
	return c.countsInto(ctx, start, make([]int64, c.horizon+1))
}

// countsInto is Counts answering GoalPaths in goal's storage (horizon+1
// long), so a caller scoring many roots allocates no slice per answer.
func (c *SharedCounter) countsInto(ctx context.Context, start status.Status, goal []int64) (SharedCounts, error) {
	if start.Term.IsZero() || start.Term.Calendar() != c.e.cat.Calendar() {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: bad start term %v", start.Term)
	}
	if !start.Term.Before(c.end) {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: end semester %v is not after start %v", c.end, start.Term)
	}
	key := start.Completed.Words()
	if len(key) < c.stride { // pad a short set's copy to the key width
		key = append(make([]uint64, 0, c.stride), key...)[:c.stride]
	} else if slices.ContainsFunc(key[c.stride:], func(v uint64) bool { return v != 0 }) {
		return SharedCounts{}, fmt.Errorf("explore: SharedCounter: completed set names a course outside the catalog")
	}
	key = key[:c.stride]
	h := hashWords(key)
	li := c.lastOrd - start.Term.Ordinal()

	c.mu.RLock()
	if li < len(c.levels) {
		s := &c.levels[li]
		if j, _ := s.lookup(h, key); j >= 0 {
			out := answer(s.rec(j), goal, true)
			c.mu.RUnlock()
			c.hits.Add(1)
			return out, nil
		}
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.ready(li)
	s := &c.levels[li]
	j, at := s.lookup(h, key)
	if j >= 0 { // raced with another builder
		c.hits.Add(1)
		return answer(s.rec(j), goal, true), nil
	}
	c.newN, c.reusedN = 0, 0
	c.stats.Builds++
	root := status.Status{Term: start.Term, Completed: bitset.FromWords(key), Options: start.Options}
	vec, err := c.build(ctx, s, at, h, root, 0)
	c.stats.NewStatuses += c.newN
	c.stats.ReusedStatuses += c.reusedN
	if err != nil {
		if c.n >= c.hardCap() {
			c.stats.Evictions++
			c.reset()
		}
		return SharedCounts{}, err
	}
	out := answer(vec, goal, false)
	out.NewStatuses, out.ReusedStatuses = c.newN, c.reusedN
	if c.n > c.maxStatuses {
		// Over budget: the answer stands (every tally is complete), but
		// the substrate is dropped so memory returns to the bound.
		c.stats.Evictions++
		c.reset()
	}
	return out, nil
}

// ready sizes the levels and frames a build rooted on level li reaches:
// levels li down to 0, one frame per level. Both grow only here, before a
// build, because a build holds pointers into them.
func (c *SharedCounter) ready(li int) {
	for len(c.levels) <= li {
		c.levels = append(c.levels, countStripe{head: c.horizon + 2, stride: c.stride})
	}
	if len(c.frames) > li {
		return
	}
	w, fw := c.stride, 3*c.stride+c.horizon+2
	buf := make([]uint64, (li+1)*fw)
	c.frames = make([]sharedFrame, li+1)
	for d := range c.frames {
		b, f := buf[d*fw:(d+1)*fw:(d+1)*fw], &c.frames[d]
		f.sel, f.child, f.opts = bitset.FromWords(b[:w:w]), bitset.FromWords(b[w:2*w:2*w]), bitset.FromWords(b[2*w:3*w:3*w])
		f.vec = b[3*w:]
	}
}

// answer reads a tally vector (or a record, which starts with one) into
// an answer whose GoalPaths is goal.
func answer(vec []uint64, goal []int64, hit bool) SharedCounts {
	for h := range goal {
		goal[h] = int64(vec[1+h])
	}
	return SharedCounts{Paths: int64(vec[0]), GoalPaths: goal, Hit: hit}
}

// errSharedBudget aborts a build that would exceed the hard status cap.
var errSharedBudget = fmt.Errorf("explore: shared counter over status budget")

// hardCap is the interned-status count at which a build aborts: twice the
// budget, saturating.
func (c *SharedCounter) hardCap() int64 { return satMul(2, c.maxStatuses) }

// build computes the tally vector of st, a status not yet interned, and
// adds its record to level s at slot at (from lookup's miss under hash h)
// on completion — never before: a cancelled build must not leave
// half-filled vectors behind. The vector returned is depth's scratch,
// valid until the next build at that depth. Caller holds the write lock.
func (c *SharedCounter) build(ctx context.Context, s *countStripe, at, h uint64, st status.Status, depth int) ([]uint64, error) {
	if c.steps++; c.steps&255 == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.n >= c.hardCap() {
			return nil, errSharedBudget
		}
	}
	e := c.e
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		return nil, errStopRun
	}
	f := &c.frames[depth]
	vec := f.vec
	clear(vec)
	endOrd := c.end.Ordinal()

	cls, minTake := e.classify(st)
	switch cls {
	case classGoal:
		e.notePaths(1)
		foldVec(vec, clampHz(st.Term.Ordinal()-endOrd, c.horizon), 1, 1)
	case classDeadline:
		e.notePaths(1)
		foldVec(vec, 0, 1, 0)
	case classPruned:
		// zeros
	case classExpand:
		next := st.Term.Next()
		goalFrom := clampHz(next.Ordinal()-endOrd, c.horizon)
		lastLevel := !next.Before(e.end)
		if lastLevel {
			if sel, goalSel, ok := e.lastLevelCounts(st, minTake); ok {
				// The deadline semester in closed form, as counting folds it.
				if e.ctl.interrupted() {
					return nil, errStopRun
				}
				e.notePaths(sel)
				foldVec(vec, goalFrom, sel, goalSel)
				break
			}
		}
		childless := true
		e.selScratch = &f.sel
		err := e.selections(st, minTake, func(sel bitset.Set) error {
			if e.ctl.interrupted() {
				return errStopRun
			}
			childless = false
			u := &f.child
			u.CopyFrom(st.Completed)
			u.UnionInPlace(sel)
			// Terminal children fold at the edge, exactly as counting does:
			// their whole contribution is known here, so they are never
			// interned.
			if e.goal.Satisfied(*u) {
				e.notePaths(1)
				foldVec(vec, goalFrom, 1, 1)
				return nil
			}
			if lastLevel {
				e.notePaths(1)
				foldVec(vec, 0, 1, 0)
				return nil
			}
			key, kids := u.Words(), &c.levels[c.lastOrd-next.Ordinal()]
			ch := hashWords(key)
			j, slot := kids.lookup(ch, key)
			if j >= 0 {
				c.reusedN++
				addVec(vec, kids.rec(j))
				return nil
			}
			cst := status.Status{Term: next, Completed: *u, Options: e.cat.OptionsInto(&f.opts, *u, next)}
			cv, err := c.build(ctx, kids, slot, ch, cst, depth+1)
			// The recursion repointed selScratch at its own depth's set;
			// restore ours before selections hands out the next sel.
			e.selScratch = &f.sel
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
			foldVec(vec, 0, 1, 0)
		}
	}

	c.newN++
	s.addRecord(at, h, vec, st.Completed.Words())
	c.n++
	return vec, nil
}

// foldVec adds paths to a tally vector's total and goal to its goal
// buckets from horizon from on, saturating.
func foldVec(vec []uint64, from int, paths, goal int64) {
	vec[0] = uint64(satAdd(int64(vec[0]), paths))
	for i := 1 + from; i < len(vec); i++ {
		vec[i] = uint64(satAdd(int64(vec[i]), goal))
	}
}

// addVec adds a child's tally vector (or its record, which starts with
// one) into dst, saturating.
func addVec(dst, src []uint64) {
	for i := range dst {
		dst[i] = uint64(satAdd(int64(dst[i]), int64(src[i])))
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
