package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// explored part of the learning graph — best-first search typically
// touches a tiny fraction of the full learning graph (paper Figure 4's
// interactive latencies rest on this).
type RankedResult struct {
	// Paths lists up to k goal paths in rank order (best first). Fewer than
	// k are returned when the goal graph has fewer goal paths.
	Paths []RankedPath
	// Graph is the explored portion of the learning graph. Without a
	// sink it holds only the nodes the search popped — the root and every
	// expanded, goal, deadline or pruned node — and the edges into them:
	// a generated child waits on the frontier as a compact entry and
	// becomes a node only when popped. With a sink every generated child
	// is a node, as its edge event names it.
	Graph *graph.Graph
	// Nodes, Edges, PrunedTime and PrunedAvail mirror Result: Nodes and
	// Edges count every generated child, popped or not.
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
// best-first order). It is 32 bytes of four fields, few enough for the
// compiler to keep an item in registers.
type frontierItem struct {
	node frontierNode
	cost float64 // g: accumulated path cost
	pri  float64 // f = g + h
	seq  int64   // LIFO tie-break: equal-f work proceeds depth-first
}

// frontierNode names a frontier item's node: a graph node (parent ==
// graph.None, ref its id) or a child not yet in the graph (ref its record
// in the search's frontierStore, parent the graph node it was generated
// from).
type frontierNode struct {
	parent graph.NodeID
	ref    int32
}

// frontierStore holds the frontier's unpopped children in one flat word
// slice, one record each: the edge cost's bits, then the selection's
// words. The child's status is its parent's completed set plus the
// selection, one semester on, so nothing else needs keeping until a pop
// makes it a graph node.
type frontierStore struct {
	words  []uint64
	stride int // record length: 1 + words per selection
}

// push records a child and returns its record index.
func (s *frontierStore) push(cost float64, sel bitset.Set) int32 {
	i := len(s.words) / s.stride
	s.words = reserve(s.words, s.stride)[:len(s.words)+s.stride]
	r := s.words[i*s.stride:]
	r[0] = math.Float64bits(cost)
	clear(r[1:])
	copy(r[1:], sel.Words())
	return int32(i)
}

// record returns record i's edge cost and selection words.
func (s *frontierStore) record(i int32) (float64, []uint64) {
	r := s.words[int(i)*s.stride : (int(i)+1)*s.stride]
	return math.Float64frombits(r[0]), r[1:]
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
	// With no sink, a generated child is a compact frontier entry: its
	// selection and edge cost go to the frontier store, and h, the rankers'
	// EdgeCost and both pruners read only its term and completed set (the
	// union, built in scratch). It becomes a graph node — with its option
	// set derived — only when popped: a search that generates thousands of
	// children typically expands a few hundred. Edge events carry the
	// child status and node id, so a sink gets every child eagerly.
	lazy := sink == nil
	var store frontierStore
	var uscr, wscr bitset.Set
	if lazy {
		store.stride = 1 + (cat.Len()+63)/64
		// Each selection is consumed (copied into the store) before the
		// next is asked for, so one reused set serves them all.
		e.selScratch = &wscr
	}
	pq := newMinHeap(frontierLess, 64)
	pq.Push(frontierItem{node: frontierNode{parent: graph.None, ref: int32(g.Root())}, cost: 0, pri: h(start), seq: 0})
	var seq int64
	for pq.Len() > 0 && len(res.Paths) < k {
		if e.ctl != nil && (e.ctl.halted() != stopNone || e.ctl.noteNode()) {
			break
		}
		it := pq.Pop()
		res.Popped++
		id := graph.NodeID(it.node.ref)
		if it.node.parent != graph.None {
			ec, words := store.record(it.node.ref)
			parent := g.Node(it.node.parent).Status
			sel := e.arena.Make(cat.Len())
			copy(sel.Words(), words)
			x := e.arena.Union(parent.Completed, sel)
			next := parent.Term.Next()
			id = g.AddNode(status.Status{Term: next, Completed: x, Options: cat.OptionsArena(&e.arena, x, next)})
			g.AddEdge(it.node.parent, id, sel, ec)
		}
		st := g.Node(id).Status
		class, minTake := e.classify(st)
		switch class {
		case classGoal:
			g.MarkGoal(id)
			rp := RankedPath{
				Path:  g.PathTo(id),
				Cost:  it.cost,
				Value: ranker.PathValue(it.cost),
			}
			res.Paths = append(res.Paths, rp)
			if sink != nil {
				ev := Event{
					Kind: KindPath, Node: int64(id), Status: st, Goal: true,
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
			g.MarkPruned(id)
			if sink != nil {
				if err := e.emit(Event{Kind: KindPruned, Node: int64(id), Status: st, Strategy: e.prunedBy}); err != nil {
					return finish(err)
				}
			}
			continue
		}
		next := st.Term.Next()
		err := e.selections(st, minTake, func(w bitset.Set) error {
			ec := ranker.EdgeCost(st, w)
			if ec < 0 {
				return fmt.Errorf("explore: ranking function %q returned negative edge cost %g", ranker.Name(), ec)
			}
			var child status.Status
			node := frontierNode{parent: id}
			if lazy {
				uscr.CopyFrom(st.Completed)
				uscr.UnionInPlace(w)
				child = status.Status{Term: next, Completed: uscr}
			} else {
				child = e.advance(st, w)
				node = frontierNode{parent: graph.None, ref: int32(g.AddNode(child))}
			}
			// Children count as generated, popped or not, so the node budget
			// trips at the same child with or without a sink.
			res.Nodes++
			if opt.MaxNodes > 0 && res.Nodes > int64(opt.MaxNodes) {
				return fmt.Errorf("%w: %d nodes (budget %d)", ErrGraphTooLarge, res.Nodes, opt.MaxNodes)
			}
			res.Edges++
			if !lazy {
				g.AddEdge(id, graph.NodeID(node.ref), w, ec)
				if err := e.emit(Event{Kind: KindEdge, Parent: int64(id), Node: int64(node.ref), Status: child, Selection: w, Cost: ec}); err != nil {
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
			if lazy {
				node.ref = store.push(ec, w)
			}
			pq.Push(frontierItem{node: node, cost: gCost, pri: pri, seq: seq})
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
