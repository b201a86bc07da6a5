package explore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// Deadline runs Algorithm 1: it materialises the learning graph containing
// every path from the start status to the end semester.
func Deadline(cat *catalog.Catalog, start status.Status, end term.Term, opt Options) (Result, error) {
	return DeadlineCtx(context.Background(), cat, start, end, opt)
}

// DeadlineCtx is Deadline under a context: cancellation (or the context
// deadline, or any Options.Budget bound) ends the run with a partial
// Result whose Stopped field names the cause, and a nil error.
func DeadlineCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, opt Options) (Result, error) {
	return run(ctx, cat, start, end, nil, nil, opt, true, nil)
}

// DeadlineCount runs Algorithm 1 in counting mode: it streams over the
// same search tree but materialises nothing, so Table-2-scale path counts
// complete in constant memory (Result.Graph is nil).
func DeadlineCount(cat *catalog.Catalog, start status.Status, end term.Term, opt Options) (Result, error) {
	return DeadlineCountCtx(context.Background(), cat, start, end, opt)
}

// DeadlineCountCtx is DeadlineCount under a context (see DeadlineCtx).
func DeadlineCountCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, opt Options) (Result, error) {
	return run(ctx, cat, start, end, nil, nil, opt, false, nil)
}

// Goal runs the goal-driven algorithm of §4.2.3: Algorithm 1 with goal
// nodes as additional end nodes and the given pruning strategies cutting
// hopeless subtrees. Pass PaperPruners for the paper's configuration or
// nil for the "No Pruning" baseline of Table 1.
func Goal(cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) (Result, error) {
	return GoalCtx(context.Background(), cat, start, end, goal, pruners, opt)
}

// GoalCtx is Goal under a context (see DeadlineCtx for the cancellation
// contract).
func GoalCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) (Result, error) {
	if goal == nil {
		return Result{}, fmt.Errorf("explore: Goal requires a goal; use Deadline for unconstrained runs")
	}
	return run(ctx, cat, start, end, goal, pruners, opt, true, nil)
}

// GoalCount is Goal in counting mode (no materialised graph).
func GoalCount(cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) (Result, error) {
	return GoalCountCtx(context.Background(), cat, start, end, goal, pruners, opt)
}

// GoalCountCtx is GoalCount under a context (see DeadlineCtx).
func GoalCountCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) (Result, error) {
	if goal == nil {
		return Result{}, fmt.Errorf("explore: GoalCount requires a goal")
	}
	return run(ctx, cat, start, end, goal, pruners, opt, false, nil)
}

// GoalCountMulti is GoalCountMultiCtx with a background context.
func GoalCountMulti(cat *catalog.Catalog, start status.Status, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options) (MultiResult, error) {
	return GoalCountMultiCtx(context.Background(), cat, start, end, horizon, goal, pruners, opt)
}

// GoalCountMultiCtx counts goal paths for every deadline in
// [end, end+horizon] from one DAG run: the forward prefix DP already
// passes through the extended semesters, so bucketing goal folds by
// depth answers all horizon+1 deadlines for the cost of one run at the
// farthest (see MultiResult). It always runs on the DAG substrate —
// Options.Substrate is ignored — and requires a goal. horizon == 0
// degenerates to GoalCountCtx on SubstrateDAG.
func GoalCountMultiCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, horizon int, goal degree.Goal, pruners []Pruner, opt Options) (MultiResult, error) {
	if goal == nil {
		return MultiResult{}, fmt.Errorf("explore: GoalCountMulti requires a goal")
	}
	if horizon < 0 {
		return MultiResult{}, fmt.Errorf("explore: negative horizon %d", horizon)
	}
	if err := validate(cat, start, end, opt); err != nil {
		return MultiResult{}, err
	}
	return runDAGMulti(ctx, cat, start, end, horizon, goal, pruners, opt)
}

// Stream runs a deadline-driven (goal == nil) or goal-driven exploration
// in streaming mode: every expanded edge, completed path and periodic
// progress tally is delivered to sink while the search runs, and no graph
// is materialised — memory stays proportional to the search depth, not
// the path count. The returned Result carries the run's tallies (Graph is
// nil).
//
// Sink errors end the run: ErrStopEmit cleanly (Result.Stopped ==
// StopSink), anything else as the returned error. With Options.Workers >
// 1 the run fans out and events arrive in nondeterministic order (the
// path multiset is exact). Serial runs emit every path in depth-first
// order and number nodes so a CollectSink can rebuild the exact legacy
// graph. MergeStatuses does not apply to streams on the tree substrate.
//
// With Options.Substrate == SubstrateDAG the engine builds the
// interned-status DAG first and lazily unfolds it into full paths: every
// path is emitted (in the serial tree walk's depth-first order) even
// though repeated subtrees were expanded only once. Only KindPath and
// KindProgress events are emitted on this substrate — there is no
// per-path node identity, so edge events (and CollectSink) do not apply.
func Stream(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, sink Sink) (Result, error) {
	if sink == nil {
		return Result{}, fmt.Errorf("explore: Stream requires a sink; use DeadlineCtx/GoalCtx for collected runs")
	}
	return run(ctx, cat, start, end, goal, pruners, opt, false, sink)
}

func validate(cat *catalog.Catalog, start status.Status, end term.Term, opt Options) error {
	switch {
	case cat == nil:
		return fmt.Errorf("explore: nil catalog")
	case end.IsZero():
		return fmt.Errorf("explore: empty end (deadline) term: an exploration needs a deadline semester after the start term")
	case start.Term.IsZero():
		return fmt.Errorf("explore: zero start term")
	case start.Term.Calendar() != cat.Calendar() || end.Calendar() != cat.Calendar():
		return fmt.Errorf("explore: start/end term calendar differs from catalog calendar")
	case !start.Term.Before(end):
		return fmt.Errorf("explore: end semester %v is not after start %v", end, start.Term)
	case opt.MaxPerTerm < 0:
		return fmt.Errorf("explore: negative MaxPerTerm %d", opt.MaxPerTerm)
	case opt.Workers < 0:
		return fmt.Errorf("explore: negative Workers %d", opt.Workers)
	case opt.MaxNodes < 0:
		return fmt.Errorf("explore: negative MaxNodes %d", opt.MaxNodes)
	case opt.Budget.Timeout < 0 || opt.Budget.MaxNodes < 0 || opt.Budget.MaxPaths < 0:
		return fmt.Errorf("explore: negative budget %+v", opt.Budget)
	case opt.Substrate > SubstrateDAG:
		return fmt.Errorf("explore: unknown substrate %v", opt.Substrate)
	}
	return nil
}

// run is the single driver behind every deadline/goal entry point: a walk
// of the search tree emitting events into a sink. A materialising run is
// the same walk collected by a CollectSink; a counting or streaming run
// is the walk with no collector (optionally fanned out across workers).
func run(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, materialize bool, sink Sink) (Result, error) {
	if err := validate(cat, start, end, opt); err != nil {
		return Result{}, err
	}
	if opt.Substrate == SubstrateDAG {
		if materialize {
			return Result{}, ErrSubstrateDAGMaterialize
		}
		return runDAG(ctx, cat, start, end, goal, pruners, opt, sink)
	}
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	if sink != nil && e.ctl == nil {
		// A sink can stop the run (ErrStopEmit); give it a control so the
		// stop propagates to every expansion site (and parallel workers).
		e.ctl = &control{done: ctx.Done(), ctx: ctx}
	}
	var collect *CollectSink
	if materialize {
		e.materialized = true
		e.assignIDs = true
		collect = NewCollectSink(start)
		if sink != nil {
			e.sink = Tee(collect, sink)
		} else {
			e.sink = collect
		}
		e.res.Nodes = 1
		if opt.MergeStatuses {
			e.intern = map[status.MapKey]int64{start.MapKey(): 0}
		}
	} else {
		e.sink = sink
		e.assignIDs = opt.Workers <= 1
	}
	e.nextID = 1

	began := time.Now()
	var tally [2]int64
	var err error
	if !materialize && opt.Workers > 1 {
		tally, err = e.countParallel(start, opt.Workers)
	} else {
		tally, err = e.walk(start, 0)
	}
	sinkStopped := false
	switch {
	case errors.Is(err, errStopRun):
		err = nil
	case errors.Is(err, ErrStopEmit):
		err, sinkStopped = nil, true
	}
	e.res.Paths, e.res.GoalPaths = tally[0], tally[1]
	if collect != nil {
		e.res.Graph = collect.Graph()
		if e.intern != nil && err == nil {
			// Interning makes the walk's incremental path tally meaningless
			// (merged nodes sit on many paths); recount over the DAG.
			e.res.Paths = e.res.Graph.CountPaths(false)
			e.res.GoalPaths = e.res.Graph.CountPaths(true)
		}
	}
	e.res.Elapsed = time.Since(began)
	e.res.Stopped = e.ctl.reason()
	if e.res.Stopped == "" && sinkStopped {
		e.res.Stopped = StopSink
	}
	e.res.Truncated = e.res.Stopped != ""
	return e.res, err
}

// errStopRun aborts a selections enumeration when the run control fires
// mid-expansion; the engines translate it back into a clean early return.
var errStopRun = errors.New("explore: run stopped")

// emit delivers ev to the run's sink. It rechecks the run control first,
// so a sink is never handed an event after the run has observed a stop —
// the contract streaming consumers (and the mid-stream cancellation
// tests) rely on.
func (e *engine) emit(ev Event) error {
	if e.sink == nil {
		return nil
	}
	if e.ctl != nil && e.ctl.halted() != stopNone {
		return errStopRun
	}
	return e.sink.Emit(ev)
}

// progress snapshots the engine's tallies for a KindProgress event.
func (e *engine) progress() Progress {
	return Progress{
		Nodes: e.res.Nodes, Edges: e.res.Edges,
		Paths: e.emitPaths, GoalPaths: e.emitGoal,
		PrunedTime: e.res.PrunedTime, PrunedAvail: e.res.PrunedAvail,
	}
}

// walk is the unified expansion core behind every deadline/goal engine:
// it classifies st, emits the matching event, and recurses into the
// children, returning {generated paths, goal paths} for the subtree.
//
// The two expansion orders are behaviour-preserving re-expressions of the
// legacy engines: a materialising walk creates all of a node's children
// first (numbering them in selection order, exactly as the legacy
// worklist's AddNode sequence did) and then descends last-child-first
// (the legacy LIFO pop order), so budget-stopped partial graphs are
// bit-identical to the old materialize; a counting/streaming walk
// descends into each child as it is enumerated, exactly as the legacy
// count did. The run control is consulted once per visited node.
func (e *engine) walk(st status.Status, id int64) ([2]int64, error) {
	var out [2]int64
	if e.ctl != nil {
		if e.ctl.halted() != stopNone || e.ctl.noteNode() {
			return out, nil
		}
	}
	if !e.materialized {
		e.res.Nodes++
	}
	if e.sink != nil {
		e.visits++
		if e.visits&8191 == 0 {
			if err := e.emit(Event{Kind: KindProgress, Progress: e.progress()}); err != nil {
				return out, err
			}
		}
	}
	class, minTake := e.classify(st)
	switch class {
	case classGoal:
		out = [2]int64{1, 1}
		err := e.emitTerminal(id, st, true)
		e.notePaths(1)
		return out, err
	case classDeadline:
		out = [2]int64{1, 0}
		err := e.emitTerminal(id, st, false)
		e.notePaths(1)
		return out, err
	case classPruned:
		return out, e.emitPruned(id, st)
	}
	if e.materialized {
		return e.expandMaterialized(st, id, minTake)
	}
	return e.expandStreaming(st, id, minTake)
}

// emitTerminal emits the KindPath event for a completed path ending at st.
func (e *engine) emitTerminal(id int64, st status.Status, goal bool) error {
	if e.sink == nil {
		return nil
	}
	e.emitPaths++
	if goal {
		e.emitGoal++
	}
	return e.emit(Event{Kind: KindPath, Node: id, Status: st, Goal: goal, Steps: e.spine})
}

// emitPruned emits the KindPruned event for a node cut by a strategy.
func (e *engine) emitPruned(id int64, st status.Status) error {
	if e.sink == nil {
		return nil
	}
	return e.emit(Event{Kind: KindPruned, Node: id, Status: st, Strategy: e.prunedBy})
}

// expandMaterialized is walk's expansion step for materialising runs: it
// creates (and emits) every child of st in selection order — reproducing
// the legacy worklist's node numbering — then recurses last-child-first,
// reproducing its LIFO expansion order.
func (e *engine) expandMaterialized(st status.Status, id int64, minTake int) ([2]int64, error) {
	var kids []childRef
	if n := len(e.kidsFree); n > 0 {
		kids = e.kidsFree[n-1]
		e.kidsFree = e.kidsFree[:n-1]
	}
	defer func() { e.kidsFree = append(e.kidsFree, kids[:0]) }()
	var out [2]int64
	childless, stopped := true, false
	err := e.selections(st, minTake, func(w bitset.Set) error {
		if e.ctl.interrupted() {
			// Unexpanded children remain: st must not be mistaken for a
			// natural dead end below.
			stopped = true
			return errStopRun
		}
		childless = false
		child := e.advance(st, w)
		if e.intern != nil {
			if existing, ok := e.intern[child.MapKey()]; ok {
				e.res.Edges++
				return e.emit(Event{Kind: KindEdge, Parent: id, Node: existing, Status: child, Selection: w, Reused: true})
			}
		}
		cid := e.nextID
		e.nextID++
		e.res.Nodes++
		if e.opt.MaxNodes > 0 && e.nextID > int64(e.opt.MaxNodes) {
			return fmt.Errorf("%w: %d nodes (budget %d)", ErrGraphTooLarge, e.nextID, e.opt.MaxNodes)
		}
		if e.intern != nil {
			e.intern[child.MapKey()] = cid
		}
		e.res.Edges++
		if err := e.emit(Event{Kind: KindEdge, Parent: id, Node: cid, Status: child, Selection: w}); err != nil {
			return err
		}
		kids = append(kids, childRef{st: child, id: cid, sel: w})
		return nil
	})
	if errors.Is(err, errStopRun) {
		stopped = true
		err = nil
	}
	if err != nil {
		return out, err
	}
	if childless && !stopped {
		// Natural dead end (e.g. Figure 3's n6): a generated path.
		out = [2]int64{1, 0}
		err := e.emitTerminal(id, st, false)
		e.notePaths(1)
		return out, err
	}
	for i := len(kids) - 1; i >= 0; i-- {
		k := kids[i]
		e.spine = append(e.spine, Step{Term: st.Term, Selection: k.sel})
		c, err := e.walk(k.st, k.id)
		e.spine = e.spine[:len(e.spine)-1]
		out[0] += c[0]
		out[1] += c[1]
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// expandStreaming is walk's expansion step for counting and streaming
// runs: it descends into each child as the selection is enumerated (the
// legacy count's depth-first order), materialising nothing.
func (e *engine) expandStreaming(st status.Status, id int64, minTake int) ([2]int64, error) {
	var out [2]int64
	childless, stopped := true, false
	err := e.selections(st, minTake, func(w bitset.Set) error {
		if e.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges++
		child := e.advance(st, w)
		cid := int64(-1)
		if e.assignIDs {
			cid = e.nextID
			e.nextID++
		}
		if e.sink != nil {
			if err := e.emit(Event{Kind: KindEdge, Parent: id, Node: cid, Status: child, Selection: w}); err != nil {
				return err
			}
		}
		e.spine = append(e.spine, Step{Term: st.Term, Selection: w})
		c, err := e.walk(child, cid)
		e.spine = e.spine[:len(e.spine)-1]
		out[0] += c[0]
		out[1] += c[1]
		return err
	})
	if errors.Is(err, errStopRun) {
		stopped = true
		err = nil
	}
	if err != nil {
		return out, err
	}
	if childless && !stopped {
		out = [2]int64{1, 0}
		err := e.emitTerminal(id, st, false)
		e.notePaths(1)
		return out, err
	}
	return out, nil
}

// notePaths charges tallied paths against the run's path budget.
func (e *engine) notePaths(n int64) {
	if e.ctl != nil {
		e.ctl.notePaths(n)
	}
}

// expandOnce classifies st and, when it is expandable, hands each child
// status (with the selection that produced it) to child. The return value
// is st's own terminal tally: {1,1} for a goal node, {1,0} for a deadline
// endpoint or natural dead end, {0,0} when st was pruned or expanded into
// children. Node/edge/prune tallies accrue to e.res exactly as walk's do,
// so decomposing a subtree with expandOnce and summing the pieces
// reproduces walk's totals. steps is the root→st spine, used for the
// terminal events of streaming runs.
func (e *engine) expandOnce(st status.Status, steps []Step, child func(w bitset.Set, ch status.Status)) ([2]int64, error) {
	if e.ctl != nil {
		if e.ctl.halted() != stopNone || e.ctl.noteNode() {
			return [2]int64{}, nil
		}
	}
	e.res.Nodes++
	spine := e.spine
	e.spine = steps
	defer func() { e.spine = spine }()
	class, minTake := e.classify(st)
	switch class {
	case classGoal:
		err := e.emitTerminal(-1, st, true)
		e.notePaths(1)
		return [2]int64{1, 1}, err
	case classDeadline:
		err := e.emitTerminal(-1, st, false)
		e.notePaths(1)
		return [2]int64{1, 0}, err
	case classPruned:
		return [2]int64{0, 0}, e.emitPruned(-1, st)
	}
	childless, stopped := true, false
	err := e.selections(st, minTake, func(w bitset.Set) error {
		if e.ctl.interrupted() {
			stopped = true
			return errStopRun
		}
		childless = false
		e.res.Edges++
		ch := e.advance(st, w)
		if e.sink != nil {
			if err := e.emit(Event{Kind: KindEdge, Parent: -1, Node: -1, Status: ch, Selection: w}); err != nil {
				return err
			}
		}
		child(w, ch)
		return nil
	})
	if errors.Is(err, errStopRun) {
		stopped = true
		err = nil
	}
	if err != nil {
		return [2]int64{}, err
	}
	if childless && !stopped {
		err := e.emitTerminal(-1, st, false)
		e.notePaths(1)
		return [2]int64{1, 0}, err
	}
	return [2]int64{0, 0}, nil
}
