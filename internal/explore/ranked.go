package explore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/graph"
	"repro/internal/rank"
	"repro/internal/status"
	"repro/internal/term"
)

// RankedPath is one of the top-k outputs of the ranked algorithm.
type RankedPath struct {
	// Path is the root→goal-node walk in RankedResult.Graph.
	Path graph.Path
	// Cost is the accumulated ranking cost (lower ranks higher).
	Cost float64
	// Value is the user-facing figure of merit (semesters, total hours,
	// probability), via Ranker.PathValue.
	Value float64
}

// RankedResult reports a ranked exploration run. Graph holds only the
// explored frontier — best-first search typically touches a tiny fraction
// of the full learning graph (paper Figure 4's interactive latencies rest
// on this).
type RankedResult struct {
	// Paths lists up to k goal paths in rank order (best first). Fewer than
	// k are returned when the goal graph has fewer goal paths.
	Paths []RankedPath
	// Graph is the explored portion of the learning graph. Without a
	// sink, a generated node's option set is derived only when the search
	// pops it, so nodes left on the frontier carry an empty
	// Status.Options.
	Graph *graph.Graph
	// Nodes, Edges, PrunedTime and PrunedAvail mirror Result.
	Nodes, Edges            int64
	PrunedTime, PrunedAvail int64
	// Popped counts best-first queue pops (search effort).
	Popped int64
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Stopped names why the search ended early (see Result.Stopped);
	// empty when the search ran to k paths or frontier exhaustion. The
	// paths found before the stop are still exactly the best ones, in
	// order — best-first search emits goal paths rank-first.
	Stopped string
	// Truncated reports a partial search (equivalent to Stopped != "").
	Truncated bool
}

// frontierItem is a priority-queue entry: a generated node awaiting
// classification/expansion, keyed by its A* priority f = g + h, where g
// is the root-path cost and h the ranker's admissible remaining-cost
// bound (zero when the ranker offers none, reducing to the paper's plain
// best-first order).
type frontierItem struct {
	node graph.NodeID
	cost float64 // g: accumulated path cost
	pri  float64 // f = g + h
	seq  int64   // LIFO tie-break: equal-f work proceeds depth-first
}

// frontierLess orders the best-first queue: lowest priority first; among
// equal priorities prefer larger g (deeper, closer to a goal), so
// unit-cost searches do not degenerate into BFS; then newest first.
func frontierLess(a, b frontierItem) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.seq > b.seq
}

// Ranked runs the top-k algorithm of §4.3.2: best-first search over path
// cost under the given ranking function, with the goal-driven pruning
// strategies active, stopping as soon as k goal paths have been produced.
// Lemma 2 (non-negative edge costs ⇒ subpath monotonicity) makes the first
// k goal pops exactly the top-k paths.
//
// When Options.MaxPathCost is set, paths costlier than the threshold are
// excluded (§4.3.1's "paths whose workload does not exceed a given
// threshold"): any frontier entry whose admissible priority bound already
// exceeds the threshold is discarded, so fewer than k paths may return.
func Ranked(cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, ranker rank.Ranker, k int, pruners []Pruner, opt Options) (RankedResult, error) {
	return RankedCtx(context.Background(), cat, start, end, goal, ranker, k, pruners, opt)
}

// RankedCtx is Ranked under a context: cancellation, the context
// deadline, or any Options.Budget bound ends the search with however many
// of the top paths were already emitted (RankedResult.Stopped names the
// cause) and a nil error.
func RankedCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, ranker rank.Ranker, k int, pruners []Pruner, opt Options) (RankedResult, error) {
	return RankedStream(ctx, cat, start, end, goal, ranker, k, pruners, opt, nil)
}

// RankedStream is RankedCtx with an event sink: each expanded edge and
// each of the top-k goal paths is emitted as it is produced, in rank
// order (see the ordering contract documented in package rank). Path
// events carry the root→goal spine in Steps plus PathCost/PathValue; edge
// events carry graph node ids and the ranker's edge cost. A nil sink is
// allowed (RankedCtx is exactly that). ErrStopEmit from the sink ends the
// search cleanly with Stopped == StopSink; the paths already collected
// remain the best ones, in order.
func RankedStream(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, ranker rank.Ranker, k int, pruners []Pruner, opt Options, sink Sink) (RankedResult, error) {
	var res RankedResult
	if goal == nil {
		return res, fmt.Errorf("explore: Ranked requires a goal")
	}
	if ranker == nil {
		return res, fmt.Errorf("explore: Ranked requires a ranking function")
	}
	if k <= 0 {
		return res, fmt.Errorf("explore: k must be positive, got %d", k)
	}
	if opt.MergeStatuses {
		return res, fmt.Errorf("explore: MergeStatuses is not supported by the ranked algorithm (merged nodes lose path identity)")
	}
	if err := validate(cat, start, end, opt); err != nil {
		return res, err
	}
	e := newEngine(cat, end, goal, pruners, opt)
	e.ctl = newControl(ctx, opt.Budget)
	if sink != nil && e.ctl == nil {
		e.ctl = &control{done: ctx.Done(), ctx: ctx}
	}
	e.sink = sink
	began := time.Now()

	g := graph.New(start)
	res.Graph = g
	res.Nodes = 1

	finish := func(err error) (RankedResult, error) {
		sinkStopped := false
		switch {
		case errors.Is(err, errStopRun):
			err = nil
		case errors.Is(err, ErrStopEmit):
			err, sinkStopped = nil, true
		}
		res.PrunedTime, res.PrunedAvail = e.res.PrunedTime, e.res.PrunedAvail
		res.Elapsed = time.Since(began)
		res.Stopped = e.ctl.reason()
		if res.Stopped == "" && sinkStopped {
			res.Stopped = StopSink
		}
		res.Truncated = res.Stopped != ""
		return res, err
	}

	// The heuristic consults the engine's memoised goal, so repeated
	// Remaining computations over equivalent completed sets are lookups.
	h := func(st status.Status) float64 {
		left := e.goal.Remaining(st.Completed)
		if left < 0 {
			return 0 // unsatisfiable; the pruners cut these nodes
		}
		return ranker.Heuristic(left, opt.MaxPerTerm)
	}
	// With no sink, a child is generated with only its term and completed
	// set, which is all that h, the rankers' EdgeCost and both pruners
	// read, and its option set is derived when it is popped: a search that
	// generates thousands of children typically expands a few hundred.
	// Edge events carry the child status, so a sink gets it eagerly.
	lazy := sink == nil
	pq := newMinHeap(frontierLess, 64)
	pq.Push(frontierItem{node: g.Root(), cost: 0, pri: h(start), seq: 0})
	var seq int64
	for pq.Len() > 0 && len(res.Paths) < k {
		if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
			break
		}
		it := pq.Pop()
		res.Popped++
		nd := g.Node(it.node)
		if lazy && it.node != g.Root() {
			nd.Status.Options = e.cat.OptionsArena(&e.arena, nd.Status.Completed, nd.Status.Term)
		}
		st := nd.Status
		class, minTake := e.classify(st)
		switch class {
		case classGoal:
			g.MarkGoal(it.node)
			rp := RankedPath{
				Path:  g.PathTo(it.node),
				Cost:  it.cost,
				Value: ranker.PathValue(it.cost),
			}
			res.Paths = append(res.Paths, rp)
			if sink != nil {
				ev := Event{
					Kind: KindPath, Node: int64(it.node), Status: st, Goal: true,
					Steps: rankedSteps(g, rp.Path), PathCost: rp.Cost, PathValue: rp.Value,
				}
				if err := e.emit(ev); err != nil {
					return finish(err)
				}
			}
			e.notePaths(1)
			continue
		case classDeadline:
			continue // reached the deadline without the goal: dead path
		case classPruned:
			g.MarkPruned(it.node)
			if sink != nil {
				if err := e.emit(Event{Kind: KindPruned, Node: int64(it.node), Status: st, Strategy: e.prunedBy}); err != nil {
					return finish(err)
				}
			}
			continue
		}
		next := st.Term.Next()
		err := e.selections(st, minTake, func(w bitset.Set) error {
			var child status.Status
			if lazy {
				child = status.Status{Term: next, Completed: e.arena.Union(st.Completed, w)}
			} else {
				child = e.advance(st, w)
			}
			ec := ranker.EdgeCost(st, w)
			if ec < 0 {
				return fmt.Errorf("explore: ranking function %q returned negative edge cost %g", ranker.Name(), ec)
			}
			cid := g.AddNode(child)
			res.Nodes++
			if opt.MaxNodes > 0 && g.NumNodes() > opt.MaxNodes {
				return fmt.Errorf("%w: %d nodes (budget %d)", ErrGraphTooLarge, g.NumNodes(), opt.MaxNodes)
			}
			g.AddEdge(it.node, cid, w, ec)
			res.Edges++
			if sink != nil {
				if err := e.emit(Event{Kind: KindEdge, Parent: int64(it.node), Node: int64(cid), Status: child, Selection: w, Cost: ec}); err != nil {
					return err
				}
			}
			seq++
			gCost := it.cost + ec
			pri := gCost + h(child)
			if opt.MaxPathCost > 0 && pri > opt.MaxPathCost {
				// The priority is a lower bound on any completion's cost;
				// no path through this child can meet the threshold.
				return nil
			}
			pq.Push(frontierItem{node: cid, cost: gCost, pri: pri, seq: seq})
			return nil
		})
		if err != nil {
			if errors.Is(err, errStopRun) || errors.Is(err, ErrStopEmit) {
				return finish(err)
			}
			res.PrunedTime, res.PrunedAvail = e.res.PrunedTime, e.res.PrunedAvail
			res.Elapsed = time.Since(began)
			return res, err
		}
	}
	return finish(nil)
}

// rankedSteps converts a graph path into the event-stream Step spine.
func rankedSteps(g *graph.Graph, p graph.Path) []Step {
	steps := make([]Step, len(p.Edges))
	for i, eid := range p.Edges {
		steps[i] = Step{
			Term:      g.Node(p.Nodes[i]).Status.Term,
			Selection: g.Edge(eid).Selection,
		}
	}
	return steps
}
