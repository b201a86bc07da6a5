package explore

import (
	"context"
	"errors"
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
// Counting runs (no sink, no what-if) build the DAG level by level in
// flat records and propagate path prefixes forward (dag_count.go). The
// node-graph builder in this file serves the two modes that need nodes
// beyond their own level. Both expand breadth-first by level.
//
//   - dagTally (what-if): forward prefixes cannot attribute shared
//     terminals to individual candidate roots, so this mode folds terminal
//     children at the edge without interning them (skipping their table
//     probe and option-set derivation roughly halves the build) and then
//     fills per-node {paths, goal paths} tallies BOTTOM-UP by
//     re-enumerating each non-terminal node's selections in descending
//     level order (retally). Enumeration is deterministic, so the second
//     pass sees exactly the build's edges at the cost of a second sweep
//     instead of an edge list — far cheaper than materialising tens of
//     millions of edges and terminals.
//
//   - dagStream: every status is interned and edges are recorded in
//     selection-enumeration order, because the lazy unfold needs the
//     edges themselves (and the terminal statuses for its path events);
//     the unfold counts the paths it emits.

// ErrSubstrateDAGMaterialize rejects a materialising run on the DAG
// substrate: a materialised learning graph is the tree (per-path node
// identity), which the DAG never builds. Use SubstrateTree, or stream
// paths and let the engine lazily unfold the DAG.
var ErrSubstrateDAGMaterialize = errors.New("explore: the DAG substrate cannot materialise a learning graph; use SubstrateTree, or Stream to lazily unfold paths")

// dagNode is one interned (semester, completed) status. A node is created
// exactly once — by whichever expansion first reaches the status — and
// classified at creation; edge-mode expansion fills its edge list once.
type dagNode struct {
	// tally is the what-if DP value {paths, goal paths} (retally).
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
	dagTally  dagMode = iota // folded build + bottom-up re-enumeration tallies (what-if)
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
	mode   dagMode

	slab  nodeSlab
	level []*dagNode // current BFS level being expanded
	next  []*dagNode // expandable nodes discovered for the next level

	// byDepth buckets every generated node by level for retally's
	// bottom-up sweep (what-if only).
	byDepth [][]*dagNode

	// uscr is the completed-union scratch: child keys are probed from it,
	// so an intern hit computes the union without retaining arena memory.
	// wscr is the reused selection set handed to engine.selections in
	// what-if mode (see engine.selScratch).
	uscr, wscr bitset.Set
}

func newDAGBuilder(e *engine, mode dagMode) *dagBuilder {
	b := &dagBuilder{e: e, mode: mode}
	if mode == dagTally {
		// What-if consumes each selection before asking for the next and
		// retains nothing, so one reused scratch set serves them all.
		e.selScratch = &b.wscr
	}
	return b
}

// add interns a fully-formed status (a root), creating its node if new.
func (b *dagBuilder) add(st status.Status, depth int32) *dagNode {
	key := st.MapKey()
	h := dagHash(key)
	if n := b.tab.lookup(h, key); n != nil {
		return n
	}
	e := b.e
	n := b.slab.alloc()
	n.depth = depth
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
// charge, queueing for the next level, and (what-if) the DP bucket.
func (b *dagBuilder) created(n *dagNode) {
	switch n.class {
	case classGoal, classDeadline:
		if b.e.sink == nil {
			b.e.notePaths(1)
		}
	case classExpand:
		b.next = append(b.next, n)
	}
	if b.mode == dagTally {
		for int(n.depth) >= len(b.byDepth) {
			b.byDepth = append(b.byDepth, nil)
		}
		b.byDepth[n.depth] = append(b.byDepth[n.depth], n)
	}
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
// {0,0}. When the caller already knows the child is a terminal (stream
// mode interns terminals too; what-if never calls this for them), the
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

// expand enumerates a node's selections once. What-if mode folds terminal
// children into the run's edge and path charges without interning them;
// stream mode interns every child and records the edge. A budget stop
// mid-enumeration leaves the node partially expanded — the DP then sums a
// valid lower bound — and suppresses the natural-dead-end classification
// (unexpanded ≠ childless).
func (b *dagBuilder) expand(n *dagNode) {
	e := b.e
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return
	}
	next := n.st.Term.Next()
	ord := int32(next.Ordinal())
	lastLevel := !next.Before(e.end)
	if lastLevel && b.mode == dagTally {
		// The deadline semester in closed form (fold.go): every selection
		// is an edge and a terminal path; the run control is consulted
		// once for the node, where the enumeration consulted it per
		// selection. retally reads the same counts back.
		if sel, _, ok := e.lastLevelCounts(n.st, int(n.minTake)); ok {
			if !e.ctl.interrupted() {
				e.res.Edges = satAdd(e.res.Edges, sel)
				e.notePaths(sel)
			}
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
		// What-if: fold terminal edges without interning the child.
		if lastLevel || (e.goal != nil && e.goal.Satisfied(b.uscr)) {
			e.notePaths(1)
			return nil
		}
		key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
		b.intern(dagHash(key), key, n, sel, next, false)
		return nil
	})
	if n.deadEnd = childless && !stopped; n.deadEnd && e.sink == nil {
		e.notePaths(1)
	}
}

// build drains the levels breadth-first: children always land exactly one
// level down, so levels are a topological order for the bottom-up sweeps.
func (b *dagBuilder) build() {
	for len(b.next) > 0 {
		b.level, b.next = b.next, b.level[:0]
		for _, n := range b.level {
			b.expand(n)
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

// runDAGMulti is the multi-deadline counting driver: one counting build
// with the engine's deadline set to end+horizon and goal folds bucketed
// by depth (countBuilder.multi); prefix sums over the buckets give the
// goal-path total for every deadline in [end, end+horizon]. Paths and
// GoalPaths in the embedded Result are relative to the farthest deadline.
// A stopped run's totals are lower bounds, as for any counting run.
func runDAGMulti(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options) (MultiResult, error) {
	e := newEngine(cat, end.Add(horizon), goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	began := time.Now()
	b := countDAG(e, start, opt.Workers, true)
	mr := MultiResult{Result: e.countResult(b, began), GoalPathsAt: make([]int64, horizon+1)}
	base := end.Ordinal() - start.Term.Ordinal()
	var run int64
	idx := 0
	for i := 0; i <= horizon; i++ {
		for ; idx < len(b.goalByDepth) && idx <= base+i; idx++ {
			run = satAdd(run, b.goalByDepth[idx])
		}
		mr.GoalPathsAt[i] = run
	}
	return mr, nil
}

// countResult finishes a counting run's Result from its builder.
func (e *engine) countResult(b *countBuilder, began time.Time) Result {
	e.res.DAG = true
	e.res.Paths, e.res.GoalPaths = b.paths, b.goalPaths
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	e.res.Truncated = e.res.Stopped != ""
	return e.res
}

// runDAG is run's driver for SubstrateDAG. A counting run (no sink) runs
// the forward prefix DP over flat levels, in parallel when
// Options.Workers > 1. A streaming run builds the interned-status node
// graph serially and lazily unfolds it into path events. Budgets and
// cancellation flow through the same control as the tree walk; a stopped
// run returns lower-bound tallies with Result.Stopped naming the cause.
func runDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, sink Sink) (Result, error) {
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	began := time.Now()
	if sink == nil {
		return e.countResult(countDAG(e, start, opt.Workers, false), began), nil
	}
	if e.ctl == nil {
		e.ctl = &control{done: ctx.Done(), ctx: ctx}
	}
	e.sink = sink
	b := newDAGBuilder(e, dagStream)
	root := b.add(start, 0)
	b.build()
	e.res.DAG = true

	err := e.unfoldDAG(root)
	sinkStopped := false
	switch {
	case errors.Is(err, errStopRun):
		err = nil
	case errors.Is(err, ErrStopEmit):
		err, sinkStopped = nil, true
	}
	// Delivered tallies: a stopped unfold has emitted a prefix of the
	// paths and reports exactly that prefix.
	e.res.Paths, e.res.GoalPaths = e.emitPaths, e.emitGoal
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	if e.res.Stopped == "" && sinkStopped {
		e.res.Stopped = StopSink
	}
	e.res.Truncated = e.res.Stopped != ""
	return e.res, err
}
