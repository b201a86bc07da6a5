package explore

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file is the DAG substrate's counting core (DESIGN.md §13): the
// forward prefix DP behind every deadline and goal countOnly run, single-
// and multi-horizon, serial and parallel. It propagates the number of
// root→status path prefixes forward along edges. An edge advances the
// semester by exactly one, so once a level is expanded every prefix count
// on the next one is final, and no edge list is ever stored.
//
// Statuses on different semesters never collide, so the build keeps only
// two levels: the one being expanded and the one its children are interned
// into, their storage reused from level to level. A level stores per
// status exactly what the DP reads — the prefix count, the class, the
// time-based minTake and the completed-set words — as one fixed-size
// record in a flat slice. The option set is derived when a status is
// expanded, into reused scratch: no Pruner reads it. A child that satisfies the goal or lands on the deadline is a
// path endpoint whose whole contribution is known at the edge, so it is
// folded into the totals and never interned; natural dead ends are charged
// when their expansion finds no selection.
//
// With Workers > 1 a level is split into memoShards lock-striped stripes.
// Workers draw statuses of the level being expanded from a shared cursor
// and intern children under the stripe lock, so each distinct status has
// exactly one creator and the structural tallies — Nodes, Edges, the prune
// split — equal the serial build's.

// countSlotsMin is a stripe's first slot-table size; growth doubles it.
const countSlotsMin = 1 << 6

// memoShards is a parallel build's stripe count per level. 64 stripes
// keep lock contention negligible at any realistic worker count while
// each stripe's table stays dense.
const (
	memoShardBits = 6
	memoShards    = 1 << memoShardBits
)

// countStripe is one lock stripe of a level: its statuses as fixed-size
// records in one flat slice, plus their open-addressed index. A record is
// a head of head words, then the status's completed-set words, so the
// probe that finds a status and the read or add that follows touch one
// record. The forward DP's head is the status's prefix count, then its
// class and minTake (countRecHead words); the shared counter's is the
// status's tally vector (dag_shared.go).
type countStripe struct {
	mu sync.Mutex // held while interning, in parallel builds only

	recs   []uint64
	head   int // words before the completed set
	stride int // completed-set words per record

	// slots is the open-addressed index: a slot holds the low 32 bits of
	// a status's hash above its record index + 1 (0 marks an empty slot),
	// so a probe compares completed sets only on a hash match, and growth
	// re-places entries without rehashing their sets.
	slots []uint64
	mask  uint64
}

// countRecHead is a forward-DP record's head length.
const countRecHead = 2

// countLevel is one semester of a counting build.
type countLevel struct {
	term    term.Term
	depth   int32 // semesters after the start
	stripes []countStripe
}

func newCountLevel(stride, stripes int) *countLevel {
	lv := &countLevel{stripes: make([]countStripe, stripes)}
	for i := range lv.stripes {
		lv.stripes[i].head, lv.stripes[i].stride = countRecHead, stride
	}
	return lv
}

// reset empties the level for reuse as semester t, keeping its storage.
func (lv *countLevel) reset(t term.Term, depth int32) {
	lv.term, lv.depth = t, depth
	for i := range lv.stripes {
		s := &lv.stripes[i]
		s.recs = s.recs[:0]
		clear(s.slots)
	}
}

// size returns the number of statuses on the level.
func (lv *countLevel) size() int {
	n := 0
	for i := range lv.stripes {
		n += lv.stripes[i].len()
	}
	return n
}

// stripe returns the stripe owning hash h. The index probe uses the low
// bits, so stripe choice and probe order stay independent.
func (lv *countLevel) stripe(h uint64) *countStripe {
	if len(lv.stripes) == 1 {
		return &lv.stripes[0]
	}
	return &lv.stripes[h>>(64-memoShardBits)]
}

func (s *countStripe) len() int { return len(s.recs) / (s.head + s.stride) }

// rec returns status i's record.
func (s *countStripe) rec(i int) []uint64 {
	n := s.head + s.stride
	return s.recs[i*n : (i+1)*n : (i+1)*n]
}

// Record accessors: r is a record from rec.
func recPrefix(r []uint64) int64      { return int64(r[0]) }
func recClass(r []uint64) nodeClass   { return nodeClass(r[1] >> 32) }
func recMinTake(r []uint64) int       { return int(uint32(r[1])) }
func recSet(r []uint64) bitset.Set    { return bitset.FromWords(r[countRecHead:]) }
func recAdd(r []uint64, prefix int64) { r[0] = uint64(satAdd(int64(r[0]), prefix)) }

// lookup returns the index of the status whose completed set is key, or
// -1 and the empty slot an insert of key would fill. It writes nothing,
// so readers may probe concurrently.
func (s *countStripe) lookup(h uint64, key []uint64) (int, uint64) {
	if len(s.slots) == 0 {
		return -1, 0
	}
	tag := h << 32
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.slots[i]
		if v == 0 {
			return -1, i
		}
		if v&^math.MaxUint32 == tag {
			j := int(uint32(v)) - 1
			if slices.Equal(s.rec(j)[s.head:], key) {
				return j, i
			}
		}
	}
}

func (s *countStripe) grow() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), countSlotsMin))
	s.mask = uint64(len(s.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := v >> 32 & s.mask
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = v
	}
}

// addRecord appends a status's record — head, then its completed set
// key — and indexes it in slot at (from lookup's miss), first growing the
// table when one more status would lift its load factor past 3/4.
func (s *countStripe) addRecord(at, h uint64, head, key []uint64) {
	if (s.len()+1)*4 > len(s.slots)*3 {
		s.grow()
		_, at = s.lookup(h, key)
	}
	j := s.len()
	s.recs = append(append(reserve(s.recs, len(head)+len(key)), head...), key...)
	s.slots[at] = h<<32 | uint64(j+1)
}

// add appends a forward-DP status: its prefix count, then its class and
// minTake.
func (s *countStripe) add(at, h uint64, key []uint64, prefix int64, cls nodeClass, minTake int) {
	s.addRecord(at, h, []uint64{uint64(prefix), uint64(cls)<<32 | uint64(uint32(minTake))}, key)
}

// hashWords mixes a completed set's words into a 64-bit hash, as
// bitset.CompactKey.Hash does; the level fixes the semester.
func hashWords(w []uint64) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(0)
	for _, x := range w {
		h = (h ^ x) * m
		h ^= h >> 29
	}
	return h ^ h>>32
}

// countBuilder runs the counting DP. The same struct serves as the serial
// builder and as a parallel worker's private context: a worker carries
// its own engine, scratch sets and tallies, and shares the two levels.
type countBuilder struct {
	e         *engine
	cur, next *countLevel
	par       bool // interning takes the stripe lock

	// uscr is the completed-union scratch a child is probed from; wscr is
	// the reused selection set (engine.selScratch); oscr holds the option
	// set of the status being expanded.
	uscr, wscr, oscr bitset.Set

	paths, goalPaths int64

	// multi additionally buckets goal folds by the depth at which the goal
	// was reached (goalByDepth[d] = goal paths whose final election lands
	// on semester start+d). Prefix sums over the buckets answer every
	// deadline ≤ e.end from the one DP (see runDAGMulti).
	multi       bool
	goalByDepth []int64
}

func newCountBuilder(e *engine, stride int, multi bool) *countBuilder {
	b := &countBuilder{e: e, multi: multi, uscr: bitset.New(stride * 64)}
	// The builder consumes each selection before asking for the next and
	// retains nothing, so one reused scratch set serves them all.
	e.selScratch = &b.wscr
	return b
}

// countDAG runs the counting DP from start — across a pool when workers
// > 1 — and returns the builder holding the totals. Node, edge and prune
// tallies accrue to e.res; a stopped run's totals are lower bounds.
func countDAG(e *engine, start status.Status, workers int, multi bool) *countBuilder {
	stride := max((e.cat.Len()+63)/64, len(start.Completed.Words()))
	stripes := 1
	if workers > 1 {
		stripes = memoShards
	}
	b := newCountBuilder(e, stride, multi)
	b.cur, b.next = newCountLevel(stride, stripes), newCountLevel(stride, stripes)
	b.cur.reset(start.Term, 0)
	b.next.reset(start.Term.Next(), 1)
	b.addRoot(start)
	if workers > 1 {
		b.buildParallel(workers)
	} else {
		b.build()
	}
	return b
}

// addRoot classifies the start status: a terminal root is its own path,
// an expandable one seeds the DP with one prefix, itself.
func (b *countBuilder) addRoot(st status.Status) {
	e := b.e
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		return
	}
	cls, mt := e.classify(st)
	e.res.Nodes++
	switch cls {
	case classGoal:
		e.notePaths(1)
		b.paths, b.goalPaths = 1, 1
		if b.multi {
			b.bumpGoal(0, 1)
		}
	case classDeadline:
		e.notePaths(1)
		b.paths = 1
	case classExpand:
		b.uscr.CopyFrom(st.Completed)
		key := b.uscr.Words()
		h := hashWords(key)
		s := b.cur.stripe(h)
		_, at := s.lookup(h, key)
		s.add(at, h, key, 1, classExpand, mt)
	}
}

// advance makes the level just built the one to expand and reuses the
// expanded level's storage for the level after it.
func (b *countBuilder) advance() {
	b.cur, b.next = b.next, b.cur
	b.next.reset(b.cur.term.Next(), b.cur.depth+1)
}

// build drains the levels in order, each in creation order.
func (b *countBuilder) build() {
	for b.cur.size() > 0 {
		lv := b.cur
		for si := range lv.stripes {
			s := &lv.stripes[si]
			for i := range s.len() {
				if r := s.rec(i); recClass(r) == classExpand {
					b.expand(lv, r)
				}
			}
		}
		b.advance()
	}
}

// buildParallel drains the levels across a worker pool; the level barrier
// makes every prefix count final before its status is expanded.
func (b *countBuilder) buildParallel(workers int) {
	if b.cur.size() == 0 {
		return
	}
	e := b.e
	e.res.Parallel = true
	ws := make([]*countBuilder, workers)
	for i := range ws {
		sub := newEngine(e.cat, e.end, degree.Unwrap(e.rawGoal), e.rawPruners, e.opt)
		sub.ctl = e.ctl // one control spans the whole pool
		ws[i] = newCountBuilder(sub, b.cur.stripes[0].stride, b.multi)
		ws[i].par = true
	}
	offs := make([]int, len(b.cur.stripes)+1)
	for {
		lv := b.cur
		for si := range lv.stripes {
			offs[si+1] = offs[si] + lv.stripes[si].len()
		}
		total := offs[len(lv.stripes)]
		if total == 0 {
			break
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for _, w := range ws {
			w.next = b.next
			wg.Add(1)
			go func(w *countBuilder) {
				defer wg.Done()
				si := 0
				for {
					k := int(cursor.Add(1)) - 1
					if k >= total {
						return
					}
					for offs[si+1] <= k {
						si++
					}
					if r := lv.stripes[si].rec(k - offs[si]); recClass(r) == classExpand && !e.ctl.interrupted() {
						w.expand(lv, r)
					}
				}
			}(w)
		}
		wg.Wait()
		b.advance()
	}
	for _, w := range ws {
		b.paths = satAdd(b.paths, w.paths)
		b.goalPaths = satAdd(b.goalPaths, w.goalPaths)
		for d, v := range w.goalByDepth {
			if v != 0 {
				b.bumpGoal(int32(d), v)
			}
		}
		e.res.Nodes += w.e.res.Nodes
		e.res.Edges = satAdd(e.res.Edges, w.e.res.Edges)
		e.res.PrunedTime += w.e.res.PrunedTime
		e.res.PrunedAvail += w.e.res.PrunedAvail
	}
}

// expand enumerates a status's selections once, folding terminal children
// into the totals and pushing its prefix into interned children. A budget
// stop mid-enumeration leaves the status partially expanded — the totals
// stay lower bounds — and suppresses the natural-dead-end charge
// (unexpanded ≠ childless).
func (b *countBuilder) expand(lv *countLevel, r []uint64) {
	e := b.e
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return
	}
	x := recSet(r)
	st := status.Status{Term: lv.term, Completed: x, Options: e.cat.OptionsInto(&b.oscr, x, lv.term)}
	prefix, minTake := recPrefix(r), recMinTake(r)
	depth := lv.depth + 1
	lastLevel := !b.next.term.Before(e.end)
	if lastLevel {
		if sel, goalSel, ok := e.lastLevelCounts(st, minTake); ok {
			b.foldLast(prefix, depth, sel, goalSel)
			return
		}
	}
	childless, stopped := true, false
	_ = e.selections(st, minTake, func(sel bitset.Set) error {
		if e.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges = satAdd(e.res.Edges, 1)
		b.uscr.CopyFrom(x)
		b.uscr.UnionInPlace(sel)
		switch {
		case e.goal != nil && e.goal.Satisfied(b.uscr):
			b.paths = satAdd(b.paths, prefix)
			b.goalPaths = satAdd(b.goalPaths, prefix)
			if b.multi {
				b.bumpGoal(depth, prefix)
			}
			e.notePaths(1)
		case lastLevel:
			b.paths = satAdd(b.paths, prefix)
			e.notePaths(1)
		default:
			b.push(prefix)
		}
		return nil
	})
	if childless && !stopped {
		// A natural dead end (like Figure 3's n6) ends every prefix here.
		b.paths = satAdd(b.paths, prefix)
		e.notePaths(1)
	}
}

// foldLast charges a deadline-semester status's closed-form selection
// counts (engine.lastLevelCounts) exactly as enumerating them would: every
// selection is an edge and a terminal path, carrying the status's prefix
// count once per path and once per goal path. The run control is
// consulted once for the status, where the enumeration consulted it per
// selection.
func (b *countBuilder) foldLast(prefix int64, depth int32, sel, goalSel int64) {
	e := b.e
	if e.ctl.interrupted() {
		return
	}
	e.res.Edges = satAdd(e.res.Edges, sel)
	e.notePaths(sel)
	b.paths = satAdd(b.paths, satMul(prefix, sel))
	g := satMul(prefix, goalSel)
	b.goalPaths = satAdd(b.goalPaths, g)
	if b.multi && goalSel != 0 {
		b.bumpGoal(depth, g)
	}
}

// push adds prefix to the next level's status b.uscr, creating the status
// on first sight: one noteNode per distinct status, as the tree walk
// charges. Over budget the status is never generated — not classified,
// not counted, not interned — so the totals stay lower bounds.
func (b *countBuilder) push(prefix int64) {
	e, lv := b.e, b.next
	key := b.uscr.Words()
	h := hashWords(key)
	s := lv.stripe(h)
	if b.par {
		s.mu.Lock()
	}
	if j, at := s.lookup(h, key); j >= 0 {
		recAdd(s.rec(j), prefix)
	} else if e.ctl == nil || (e.ctl.halted() == stopNone && !e.ctl.noteNode()) {
		// Only the pruning stage runs: push is never called for a goal or
		// deadline child, and no pruner reads the option set.
		cls, mt := e.classifyPruned(status.Status{Term: lv.term, Completed: b.uscr})
		e.res.Nodes++
		s.add(at, h, key, prefix, cls, mt)
	}
	if b.par {
		s.mu.Unlock()
	}
}

// bumpGoal buckets a goal fold by the depth the goal was reached at
// (multi-deadline counting only). Workers bump their private buckets;
// buildParallel merges them after the pool joins.
func (b *countBuilder) bumpGoal(depth int32, v int64) {
	for int(depth) >= len(b.goalByDepth) {
		b.goalByDepth = append(b.goalByDepth, 0)
	}
	b.goalByDepth[depth] = satAdd(b.goalByDepth[depth], v)
}

// satAdd is a + b for non-negative operands, saturating at MaxInt64: path
// counts never wrap.
func satAdd(a, b int64) int64 {
	s, carry := bits.Add64(uint64(a), uint64(b), 0)
	if carry != 0 || s > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(s)
}

// satMul is a × b for non-negative operands, saturating at MaxInt64.
func satMul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}
