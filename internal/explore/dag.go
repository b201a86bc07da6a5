package explore

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// This file implements the interned-status DAG substrate (DESIGN.md §13):
// the (semester, completed) statuses reachable from the start form a DAG —
// every edge advances the term by one semester — and every counting
// quantity the tree walk tallies per path can instead be computed by
// dynamic programming over distinct statuses. Classification (goal test,
// deadline test, both pruning strategies) and selection enumeration depend
// only on the status itself, never on the path that reached it, so a
// status's subtree tally is a function of the status: the DP totals are
// bit-identical to the tree walk's, at a cost of |distinct statuses|
// instead of |paths|.
//
// The builder runs in one of three modes. All three expand breadth-first
// by level and fold terminal children where they can: a child that
// satisfies the goal or lands on the end semester is a path endpoint
// whose entire contribution is known at the edge, so counting modes never
// intern it — skipping its table probe and option-set derivation roughly
// halves the build.
//
//   - dagCount: propagate the number of path-prefixes reaching each
//     status FORWARD along edges — an edge strictly advances the
//     semester, so when a level is expanded every prefix count on it is
//     final. Terminal edges contribute the parent's prefix to the path
//     tallies directly; no edge list is ever stored, and Paths/GoalPaths
//     fall out of the fold plus a final linear sweep for natural dead
//     ends (and a terminal root).
//
//   - dagTally (what-if): forward prefixes cannot attribute shared
//     terminals to individual candidate roots, so this mode builds the
//     same folded structure and then fills per-node {paths, goal paths}
//     tallies BOTTOM-UP by re-enumerating each non-terminal node's
//     selections in descending level order (retally). Enumeration is
//     deterministic, so the second pass sees exactly the build's edges at
//     the cost of a second sweep instead of an edge list — far cheaper
//     than materialising tens of millions of edges and terminals.
//
//   - dagStream: every status is interned and edges are recorded in
//     selection-enumeration order, because the lazy unfold needs the
//     edges themselves (and the terminal statuses for its path events);
//     tallies come from the classic bottom-up DP over recorded edges.

// ErrSubstrateDAGMaterialize rejects a materialising run on the DAG
// substrate: a materialised learning graph is the tree (per-path node
// identity), which the DAG never builds. Use SubstrateTree, or stream
// paths and let the engine lazily unfold the DAG.
var ErrSubstrateDAGMaterialize = errors.New("explore: the DAG substrate cannot materialise a learning graph; use SubstrateTree, or Stream to lazily unfold paths")

// dagNode is one interned (semester, completed) status. A node is created
// exactly once — by whichever expansion first reaches the status — and
// classified at creation; edge-mode expansion fills its edge list once.
type dagNode struct {
	// prefix is the forward-DP value (counting mode): the number of
	// root→status path prefixes. The parallel builder adds to it
	// atomically; the level barrier makes it final before it is read.
	prefix int64
	// tally is the bottom-up DP value {paths, goal paths} (edge mode).
	tally [2]int64
	st    status.Status
	edges []dagEdge // edge mode only
	depth int32     // level; edges go depth d → d+1, so levels are a topological order
	// minTake is the time-based strategy's minimum selection size.
	minTake int32
	class   nodeClass
	// deadEnd marks an expandable node whose selection enumeration emitted
	// nothing (a natural dead end like Figure 3's n6): a generated path.
	deadEnd bool
	// cut marks a placeholder interned after the node budget was exhausted:
	// the status was never generated (not classified, not counted) and
	// contributes {0,0}, keeping stopped-run totals valid lower bounds.
	cut bool
}

// dagEdge is one selection out of a node, in enumeration order — the
// order the tree walk would descend, which lazy unfolding reproduces.
type dagEdge struct {
	sel bitset.Set
	to  *dagNode
}

// dagMode selects the builder's storage/DP strategy; see the file comment.
type dagMode uint8

const (
	dagCount  dagMode = iota // forward prefix DP, terminal folding, no edges
	dagTally                 // folded build + bottom-up re-enumeration tallies (what-if)
	dagStream                // full interning + recorded edges for the lazy unfold
)

// dagBuilder constructs the DAG using the engine's classify/selections/
// arena machinery. The same struct serves as the serial builder and as a
// parallel worker's private context (dag_parallel.go): a worker carries
// its own engine, slab and scratch sets, and swaps the private intern
// table for the shared lock-striped one.
type dagBuilder struct {
	e      *engine
	tab    internTable      // private interner (serial build)
	shared *dagInternShards // concurrent interner (parallel workers); nil when serial
	par    bool             // parallel build: prefix propagation must be atomic
	mode   dagMode

	slab  nodeSlab
	level []*dagNode // current BFS level being expanded
	next  []*dagNode // expandable nodes discovered for the next level

	// byDepth buckets every generated node by level for the bottom-up DP
	// sweeps (dagTally and dagStream).
	byDepth [][]*dagNode

	// uscr is the completed-union scratch: child keys are probed from it,
	// so an intern hit computes the union without retaining arena memory.
	// wscr is the reused selection set handed to engine.selections in
	// counting mode (see engine.selScratch).
	uscr, wscr bitset.Set

	// paths/goalPaths accumulate the counting mode's folded terminal edges
	// and final sweep; moreSlabs are the parallel workers' node slabs,
	// merged for that sweep.
	paths, goalPaths int64
	moreSlabs        []*nodeSlab

	// multi additionally buckets counting-mode goal folds by the depth at
	// which the goal was reached (goalByDepth[d] = goal paths whose final
	// election lands on semester start+d). Prefix sums over the buckets
	// answer every deadline ≤ e.end from the one DP (see goalPathsThrough).
	multi       bool
	goalByDepth []int64
}

func newDAGBuilder(e *engine, mode dagMode) *dagBuilder {
	b := &dagBuilder{e: e, mode: mode}
	if mode != dagStream {
		// Counting modes consume each selection before asking for the next
		// and retain nothing, so one reused scratch set serves them all.
		e.selScratch = &b.wscr
	}
	return b
}

// add interns a fully-formed status (a root), creating its node if new.
// Roots seed the forward DP with one path prefix: themselves.
func (b *dagBuilder) add(st status.Status, depth int32) *dagNode {
	key := st.MapKey()
	h := dagHash(key)
	if n := b.tab.lookup(h, key); n != nil {
		return n
	}
	e := b.e
	n := b.slab.alloc()
	n.depth, n.prefix = depth, 1
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		n.cut = true
		b.tab.insert(h, key, n)
		return n
	}
	n.st = st
	cls, mt := e.classify(st)
	n.class, n.minTake = cls, int32(mt)
	e.res.Nodes++
	b.tab.insert(h, key, n)
	b.created(n)
	return n
}

// created runs a fresh non-cut node's one-time duties: the terminal path
// charge, queueing for the next level, and (edge mode) the DP bucket.
func (b *dagBuilder) created(n *dagNode) {
	switch n.class {
	case classGoal, classDeadline:
		if b.e.sink == nil {
			b.e.notePaths(1)
		}
	case classExpand:
		b.next = append(b.next, n)
	}
	if b.mode != dagCount {
		b.track(n)
	}
}

func (b *dagBuilder) track(n *dagNode) {
	for int(n.depth) >= len(b.byDepth) {
		b.byDepth = append(b.byDepth, nil)
	}
	b.byDepth[n.depth] = append(b.byDepth[n.depth], n)
}

// intern resolves the child key against whichever interner this builder
// uses, creating the node via create on a miss. The parallel path runs
// create under the shard lock, so each distinct status has exactly one
// creator across the pool.
func (b *dagBuilder) intern(h uint64, key status.MapKey, parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
	if b.shared != nil {
		n, created := b.shared.getOrPut(h, key, func() *dagNode {
			return b.create(parent, sel, next, terminal)
		})
		if created && !n.cut {
			b.created(n)
		}
		return n
	}
	if n := b.tab.lookup(h, key); n != nil {
		return n
	}
	n := b.create(parent, sel, next, terminal)
	b.tab.insert(h, key, n)
	if !n.cut {
		b.created(n)
	}
	return n
}

// create generates and classifies the status reached from parent by
// electing sel, charging the run control exactly as the tree walk does:
// one noteNode per distinct interned status. Over budget, a cut
// placeholder is interned so lookups stay consistent and the DP sees
// {0,0}. When the caller already knows the child is a terminal (edge mode
// interns terminals too; counting mode never calls this for them), the
// goal/deadline split is recomputed from the completed set; otherwise only
// the pruning stage runs — the expensive option-set derivation is shared
// by both.
func (b *dagBuilder) create(parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
	e := b.e
	n := b.slab.alloc()
	n.depth = parent.depth + 1
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		n.cut = true
		return n
	}
	x := e.arena.Union(parent.st.Completed, sel)
	st := status.Status{Term: next, Completed: x, Options: e.cat.OptionsArena(&e.arena, x, next)}
	n.st = st
	if terminal {
		if e.goal != nil && e.goal.Satisfied(x) {
			n.class = classGoal
		} else {
			n.class = classDeadline
		}
	} else {
		cls, mt := e.classifyPruned(st)
		n.class, n.minTake = cls, int32(mt)
	}
	e.res.Nodes++
	return n
}

// expand enumerates a node's selections once. Counting mode folds
// terminal children straight into the path tallies — each such edge
// contributes exactly the parent's prefix count — and pushes the prefix
// forward into interned children; edge mode interns every child and
// records the edge. A budget stop mid-enumeration leaves the node
// partially expanded — the DP then sums a valid lower bound — and
// suppresses the natural-dead-end classification (unexpanded ≠ childless).
func (b *dagBuilder) expand(n *dagNode) {
	e := b.e
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return
	}
	next := n.st.Term.Next()
	ord := int32(next.Ordinal())
	lastLevel := !next.Before(e.end)
	if lastLevel && b.mode != dagStream {
		if sel, goalSel, ok := e.lastLevelCounts(n.st, int(n.minTake)); ok {
			b.foldLast(n, sel, goalSel)
			return
		}
	}
	childless, stopped := true, false
	_ = e.selections(n.st, int(n.minTake), func(sel bitset.Set) error {
		if e.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges++
		b.uscr.CopyFrom(n.st.Completed)
		b.uscr.UnionInPlace(sel)
		if b.mode == dagStream {
			key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
			c := b.intern(dagHash(key), key, n, sel, next, lastLevel || (e.goal != nil && e.goal.Satisfied(b.uscr)))
			n.edges = append(n.edges, dagEdge{sel: sel, to: c})
			return nil
		}
		// Counting modes: fold terminal edges without interning the child.
		if e.goal != nil && e.goal.Satisfied(b.uscr) {
			if b.mode == dagCount {
				b.paths += n.prefix
				b.goalPaths += n.prefix
				if b.multi {
					b.bumpGoal(n.depth+1, n.prefix)
				}
			}
			e.notePaths(1)
			return nil
		}
		if lastLevel {
			if b.mode == dagCount {
				b.paths += n.prefix
			}
			e.notePaths(1)
			return nil
		}
		key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
		c := b.intern(dagHash(key), key, n, sel, next, false)
		if b.mode == dagCount {
			if b.par {
				atomic.AddInt64(&c.prefix, n.prefix)
			} else {
				c.prefix += n.prefix
			}
		}
		return nil
	})
	if n.deadEnd = childless && !stopped; n.deadEnd && e.sink == nil {
		e.notePaths(1)
	}
}

// foldLast charges a deadline-semester node's closed-form selection
// counts (engine.lastLevelCounts) exactly as enumerating them would:
// every selection is an edge and a terminal path, and counting mode adds
// the node's prefix once per path and once per goal path — prefix × count
// wraps exactly as the repeated additions it replaces. The run control is
// consulted once for the node, where the enumeration consulted it per
// selection.
func (b *dagBuilder) foldLast(n *dagNode, sel, goalSel int64) {
	e := b.e
	if e.ctl.interrupted() {
		return
	}
	e.res.Edges += sel
	e.notePaths(sel)
	if b.mode == dagCount {
		b.paths += n.prefix * sel
		b.goalPaths += n.prefix * goalSel
		if b.multi && goalSel != 0 {
			b.bumpGoal(n.depth+1, n.prefix*goalSel)
		}
	}
}

// build drains the levels breadth-first: children always land exactly one
// level down, so by the time a level is expanded every prefix count on it
// is final, and the forward DP needs no second pass over edges.
func (b *dagBuilder) build() {
	for len(b.next) > 0 {
		b.level, b.next = b.next, b.level[:0]
		for _, n := range b.level {
			b.expand(n)
		}
	}
}

// sweep finishes the counting DP: one linear pass over the node slabs
// picks up the statuses that end paths without being folded at edge level
// — natural dead ends, and a root that is itself a terminal. Cut
// placeholders and unexpanded nodes contribute nothing, so a stopped
// run's totals are lower bounds, never overcounts.
func (b *dagBuilder) sweep() {
	slabs := append([]*nodeSlab{&b.slab}, b.moreSlabs...)
	for _, s := range slabs {
		for _, chunk := range s.chunks {
			for i := range chunk {
				n := &chunk[i]
				switch {
				case n.cut:
				case n.class == classGoal:
					b.paths += n.prefix
					b.goalPaths += n.prefix
					if b.multi {
						b.bumpGoal(n.depth, n.prefix)
					}
				case n.class == classDeadline, n.deadEnd:
					b.paths += n.prefix
				}
			}
		}
	}
}

// bumpGoal buckets a goal fold by the depth the goal was reached at
// (multi-deadline counting only). Worker builders bump their private
// buckets; buildParallel merges them after the pool joins.
func (b *dagBuilder) bumpGoal(depth int32, v int64) {
	for int(depth) >= len(b.goalByDepth) {
		b.goalByDepth = append(b.goalByDepth, 0)
	}
	b.goalByDepth[depth] += v
}

// tallyAll runs the bottom-up DP (edge mode). Edges go depth d → d+1, so
// sweeping levels in descending depth visits every child before its
// parents. The recurrence mirrors the tree walk's per-node returns:
//
//	goal node               → {1, 1}
//	deadline endpoint       → {1, 0}
//	pruned node             → {0, 0}
//	natural dead end        → {1, 0}
//	expandable              → Σ over edges of the child tallies
//
// Budget-cut placeholders and unexpanded nodes contribute {0,0}, so a
// stopped run's totals are lower bounds, never overcounts.
func (b *dagBuilder) tallyAll() {
	for d := len(b.byDepth) - 1; d >= 0; d-- {
		for _, n := range b.byDepth[d] {
			switch n.class {
			case classGoal:
				n.tally = [2]int64{1, 1}
			case classDeadline:
				n.tally = [2]int64{1, 0}
			case classPruned:
				// zero
			default:
				if n.deadEnd {
					n.tally = [2]int64{1, 0}
					continue
				}
				var t [2]int64
				for _, ed := range n.edges {
					t[0] += ed.to.tally[0]
					t[1] += ed.to.tally[1]
				}
				n.tally = t
			}
		}
	}
}

// retally fills the bottom-up {paths, goal paths} tallies for a dagTally
// build by re-enumerating each expandable node's selections — enumeration
// is deterministic, so this second pass sees exactly the edges the build
// saw, without an edge list ever having been stored. Terminal edges score
// inline exactly as the build folded them; non-terminal children are
// looked up in the interner (always a hit: the build interned every one).
// Levels sweep in descending depth, so children are final before parents.
// Nothing is charged against the run control — the build already paid for
// every node and path — so retally must only run on unstopped builds.
func (b *dagBuilder) retally() {
	e := b.e
	for d := len(b.byDepth) - 1; d >= 0; d-- {
		for _, n := range b.byDepth[d] {
			switch {
			case n.class == classGoal:
				n.tally = [2]int64{1, 1}
				continue
			case n.class == classDeadline:
				n.tally = [2]int64{1, 0}
				continue
			case n.class == classPruned:
				continue
			case n.deadEnd:
				n.tally = [2]int64{1, 0}
				continue
			}
			next := n.st.Term.Next()
			ord := int32(next.Ordinal())
			lastLevel := !next.Before(e.end)
			if lastLevel {
				if sel, goalSel, ok := e.lastLevelCounts(n.st, int(n.minTake)); ok {
					n.tally = [2]int64{sel, goalSel}
					continue
				}
			}
			var t [2]int64
			_ = e.selections(n.st, int(n.minTake), func(sel bitset.Set) error {
				b.uscr.CopyFrom(n.st.Completed)
				b.uscr.UnionInPlace(sel)
				if e.goal != nil && e.goal.Satisfied(b.uscr) {
					t[0]++
					t[1]++
					return nil
				}
				if lastLevel {
					t[0]++
					return nil
				}
				key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
				var c *dagNode
				if b.shared != nil {
					c = b.shared.lookup(dagHash(key), key)
				} else {
					c = b.tab.lookup(dagHash(key), key)
				}
				if c != nil {
					t[0] += c.tally[0]
					t[1] += c.tally[1]
				}
				return nil
			})
			n.tally = t
		}
	}
}

// unfoldDAG lazily re-expands the DAG into full root→terminal paths,
// emitting a KindPath event per path in exactly the order the serial tree
// walk would: edges were recorded in selection-enumeration order, and the
// unfold descends them depth-first. Pruned, cut and unexpanded nodes end
// no path. Paths are charged against the run's path budget at emission.
func (e *engine) unfoldDAG(n *dagNode) error {
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return errStopRun
	}
	e.visits++
	if e.visits&8191 == 0 {
		if err := e.emit(Event{Kind: KindProgress, Progress: e.progress()}); err != nil {
			return err
		}
	}
	switch {
	case n.class == classGoal:
		err := e.emitTerminal(-1, n.st, true)
		e.notePaths(1)
		return err
	case n.class == classDeadline || n.deadEnd:
		err := e.emitTerminal(-1, n.st, false)
		e.notePaths(1)
		return err
	case n.class == classPruned || n.cut:
		return nil
	}
	for _, ed := range n.edges {
		e.spine = append(e.spine, Step{Term: n.st.Term, Selection: ed.sel})
		err := e.unfoldDAG(ed.to)
		e.spine = e.spine[:len(e.spine)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// MultiResult is the multi-deadline counting result: one forward DP run
// at the farthest deadline, read out at every intermediate deadline.
type MultiResult struct {
	// GoalPathsAt[i] is the number of goal-reaching maximal paths under
	// deadline end+i semesters (i = 0..horizon); GoalPathsAt[horizon]
	// equals Result.GoalPaths. The totals are exact, not bounds: the
	// pruners are admissible for every deadline ≤ the farthest one, so a
	// goal fold at depth d belongs to exactly the deadlines ≥ start+d.
	GoalPathsAt []int64
	Result
}

// runDAGMulti is the multi-deadline counting driver: one dagCount build
// with the engine's deadline set to end+horizon and goal folds bucketed
// by depth (dagBuilder.multi); prefix sums over the buckets give the
// goal-path total for every deadline in [end, end+horizon]. Paths and
// GoalPaths in the embedded Result are relative to the farthest deadline.
// A stopped run's totals are lower bounds, as for any counting run.
func runDAGMulti(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options) (MultiResult, error) {
	last := end.Add(horizon)
	e := newEngine(cat, last, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)

	began := time.Now()
	b := newDAGBuilder(e, dagCount)
	b.multi = true
	b.add(start, 0)
	if opt.Workers > 1 {
		b.buildParallel(opt.Workers)
	} else {
		b.build()
	}
	e.res.DAG = true
	b.sweep()
	e.res.Paths, e.res.GoalPaths = b.paths, b.goalPaths
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	e.res.Truncated = e.res.Stopped != ""

	mr := MultiResult{Result: e.res, GoalPathsAt: make([]int64, horizon+1)}
	base := end.Ordinal() - start.Term.Ordinal()
	var run int64
	idx := 0
	for i := 0; i <= horizon; i++ {
		for ; idx < len(b.goalByDepth) && idx <= base+i; idx++ {
			run += b.goalByDepth[idx]
		}
		mr.GoalPathsAt[i] = run
	}
	return mr, nil
}

// runDAG is run's driver for SubstrateDAG: build the interned-status DAG
// once (in parallel when Options.Workers > 1 and nobody is listening),
// run the DP, and — for streaming runs — lazily unfold the DAG into path
// events. Budgets and cancellation flow through the same control as the
// tree walk; a stopped run returns lower-bound tallies with
// Result.Stopped naming the cause.
func runDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, sink Sink) (Result, error) {
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	if sink != nil && e.ctl == nil {
		e.ctl = &control{done: ctx.Done(), ctx: ctx}
	}
	e.sink = sink

	began := time.Now()
	mode := dagCount
	if sink != nil {
		mode = dagStream
	}
	b := newDAGBuilder(e, mode)
	root := b.add(start, 0)
	if opt.Workers > 1 && sink == nil {
		b.buildParallel(opt.Workers)
	} else {
		b.build()
	}
	e.res.DAG = true
	if b.mode == dagStream {
		b.tallyAll()
		e.res.Paths, e.res.GoalPaths = root.tally[0], root.tally[1]
	} else {
		b.sweep()
		e.res.Paths, e.res.GoalPaths = b.paths, b.goalPaths
	}

	var err error
	sinkStopped := false
	if sink != nil {
		err = e.unfoldDAG(root)
		switch {
		case errors.Is(err, errStopRun):
			err = nil
		case errors.Is(err, ErrStopEmit):
			err, sinkStopped = nil, true
		}
		// Delivered tallies, not DP totals: a stopped unfold has emitted a
		// prefix of the paths and reports exactly that prefix.
		e.res.Paths, e.res.GoalPaths = e.emitPaths, e.emitGoal
	}
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	if e.res.Stopped == "" && sinkStopped {
		e.res.Stopped = StopSink
	}
	e.res.Truncated = e.res.Stopped != ""
	return e.res, err
}
