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
// Counting runs build the DAG level by level in flat records and
// propagate path prefixes forward (dag_count.go); what-if and other
// many-root counts memoise a tally per status (dag_shared.go). The
// node-graph builder in this file serves the stream unfold, which needs
// the edges themselves (and the terminal statuses for its path events):
// every status is interned, edges are recorded in selection-enumeration
// order, and the unfold counts the paths it emits.

// ErrSubstrateDAGMaterialize rejects a materialising run on the DAG
// substrate: a materialised learning graph is the tree (per-path node
// identity), which the DAG never builds. Use SubstrateTree, or stream
// paths and let the engine lazily unfold the DAG.
var ErrSubstrateDAGMaterialize = errors.New("explore: the DAG substrate cannot materialise a learning graph; use SubstrateTree, or Stream to lazily unfold paths")

// dagNode is one interned (semester, completed) status. A node is created
// exactly once — by whichever expansion first reaches the status — and
// classified at creation; expansion fills its edge list once.
type dagNode struct {
	st    status.Status
	edges []dagEdge
	// minTake is the time-based strategy's minimum selection size.
	minTake int32
	class   nodeClass
	// deadEnd marks an expandable node whose selection enumeration emitted
	// nothing (a natural dead end like Figure 3's n6): a generated path.
	deadEnd bool
	// cut marks a placeholder interned after the node budget was exhausted:
	// the status was never generated (not classified, not counted) and
	// ends no path, keeping stopped-run totals valid lower bounds.
	cut bool
}

// dagEdge is one selection out of a node, in enumeration order — the
// order the tree walk would descend, which lazy unfolding reproduces.
type dagEdge struct {
	sel bitset.Set
	to  *dagNode
}

// dagBuilder constructs the DAG for a streaming run using the engine's
// classify/selections/arena machinery.
type dagBuilder struct {
	e   *engine
	tab internTable

	slab  nodeSlab
	level []*dagNode // current BFS level being expanded
	next  []*dagNode // expandable nodes discovered for the next level

	// uscr is the completed-union scratch: child keys are probed from it,
	// so an intern hit computes the union without retaining arena memory.
	uscr bitset.Set
}

// root generates and classifies the start status. No child can equal it
// (every edge advances the semester), so it is never interned.
func (b *dagBuilder) root(st status.Status) *dagNode {
	e := b.e
	n := b.slab.alloc()
	if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
		n.cut = true
		return n
	}
	n.st = st
	cls, mt := e.classify(st)
	n.class, n.minTake = cls, int32(mt)
	e.res.Nodes++
	b.created(n)
	return n
}

// created queues a fresh expandable node for the next level.
func (b *dagBuilder) created(n *dagNode) {
	if n.class == classExpand {
		b.next = append(b.next, n)
	}
}

// intern resolves the child key, creating the node via create on a miss.
func (b *dagBuilder) intern(h uint64, key status.MapKey, parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
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
// placeholder is interned so lookups stay consistent. When the caller
// already knows the child is a terminal, the goal/deadline split is
// recomputed from the completed set; otherwise only the pruning stage
// runs — the expensive option-set derivation is shared by both.
func (b *dagBuilder) create(parent *dagNode, sel bitset.Set, next term.Term, terminal bool) *dagNode {
	e := b.e
	n := b.slab.alloc()
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

// expand enumerates a node's selections once, interning every child and
// recording the edge. A budget stop mid-enumeration leaves the node
// partially expanded and suppresses the natural-dead-end classification
// (unexpanded ≠ childless).
func (b *dagBuilder) expand(n *dagNode) {
	e := b.e
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return
	}
	next := n.st.Term.Next()
	ord := int32(next.Ordinal())
	lastLevel := !next.Before(e.end)
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
		key := status.MapKey{Ord: ord, Set: b.uscr.CompactKey()}
		c := b.intern(dagHash(key), key, n, sel, next, lastLevel || (e.goal != nil && e.goal.Satisfied(b.uscr)))
		n.edges = append(n.edges, dagEdge{sel: sel, to: c})
		return nil
	})
	n.deadEnd = childless && !stopped
}

// build drains the levels breadth-first: children always land exactly one
// level down.
func (b *dagBuilder) build() {
	for len(b.next) > 0 {
		b.level, b.next = b.next, b.level[:0]
		for _, n := range b.level {
			b.expand(n)
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
	b := &dagBuilder{e: e}
	root := b.root(start)
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
