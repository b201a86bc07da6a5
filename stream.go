package coursenav

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/explore"
	"repro/internal/rank"
)

// ErrStopStream, returned from a stream callback, ends the exploration
// cleanly: the run unwinds, and the returned Summary reports the partial
// tallies with Stopped == "sink". Any other callback error aborts the run
// and is returned as-is.
var ErrStopStream = errors.New("coursenav: stop streaming")

// ErrMergedStreamUnsupported reports a streaming request that cannot
// honour Query.MergeStatuses: the tree walk merges statuses only into a
// materialised graph, and a collected stream (DeadlineStreamCollect,
// GoalStreamCollect) needs per-path node identity for its graph. Plain streams support MergeStatuses via
// the DAG substrate's lazy unfold — statuses are interned (merged) during
// construction and every full path is still emitted — so leave
// Query.Substrate as "auto"/"dag" for DeadlineStream and GoalStream, or
// turn MergeStatuses off. Test with errors.Is.
var ErrMergedStreamUnsupported = errors.New(
	"coursenav: this stream cannot merge statuses (per-path identity is lost on the tree substrate); use DeadlineStream/GoalStream with substrate auto or dag — the DAG's lazy unfold merges statuses and still emits every path — or turn MergeStatuses off")

// StreamedPath is one incrementally delivered learning path.
type StreamedPath struct {
	Path
	// Goal reports whether the path ends at a goal-satisfying status.
	// Always false for deadline-driven streams (which have no goal) and
	// always true for TopK streams (which emit only goal paths).
	Goal bool `json:"goal"`
}

// pathFromSteps converts an engine spine into a presentation Path. The
// spine is borrowed from the engine, but Label/IDs copy everything the
// Path retains.
func (n *Navigator) pathFromSteps(steps []explore.Step) Path {
	sems := make([]Selection, len(steps))
	for i, s := range steps {
		sems[i] = Selection{Term: s.Term.Label(), Courses: n.cat.IDs(s.Selection)}
	}
	return Path{Semesters: sems}
}

// DeadlineStream runs the deadline-driven exploration in streaming mode:
// every maximal path is delivered to fn as soon as the engine completes
// it, and no graph is materialised — memory stays proportional to the
// search depth rather than the path count, the property that makes
// Table-2-scale windows interactive. The run honours ctx and
// Query.Budget exactly like DeadlineCtx; a stopped run has delivered a
// prefix of the paths and the returned Summary names the cause. fn may
// return ErrStopStream to stop early. Query.MaxNodes is ignored — the
// hard node cap exists to bound materialised graphs, which streaming
// runs never build (use Query.Budget.MaxNodes to bound work).
//
// Query.MergeStatuses is supported by routing the run onto the DAG
// substrate: the engine interns (merges) statuses while building the
// interned-status DAG, then lazily unfolds it so every full path is
// still delivered, in the serial tree walk's depth-first order.
// Combining MergeStatuses with Substrate "tree" returns
// ErrMergedStreamUnsupported — the tree walk merges statuses only into a
// materialised graph.
//
// With Query.Workers > 1 the engine fans out and paths arrive in
// nondeterministic order (the multiset is exact); fn is never called
// concurrently.
func (n *Navigator) DeadlineStream(ctx context.Context, q Query, fn func(StreamedPath) error) (Summary, error) {
	return n.stream(ctx, q, Goal{}, fn)
}

// GoalStream is DeadlineStream for goal-driven exploration: the §4.2
// pruners are active (unless Query.NoPruning) and each delivered path's
// Goal field reports whether it ends at a goal-satisfying status. Paths
// that reach the deadline without the goal are delivered too — filter on
// Goal for goal paths only.
func (n *Navigator) GoalStream(ctx context.Context, q Query, g Goal, fn func(StreamedPath) error) (Summary, error) {
	if g.inner == nil {
		return Summary{}, fmt.Errorf("coursenav: GoalStream requires a goal; use DeadlineStream for unconstrained runs")
	}
	return n.stream(ctx, q, g, fn)
}

func (n *Navigator) stream(ctx context.Context, q Query, g Goal, fn func(StreamedPath) error) (Summary, error) {
	if fn == nil {
		return Summary{}, fmt.Errorf("coursenav: streaming requires a callback")
	}
	start, end, opt, err := n.compile(q)
	if err != nil {
		return Summary{}, err
	}
	if q.MergeStatuses {
		// A merged stream runs on the DAG: interned construction, lazy
		// unfold, every path still emitted (see DeadlineStream).
		if opt.Substrate == explore.SubstrateTree {
			return Summary{}, ErrMergedStreamUnsupported
		}
		opt.Substrate = explore.SubstrateDAG
	}
	var pruners []explore.Pruner
	if g.inner != nil {
		pruners = n.pruners(q, g)
	}
	sink := explore.SinkFunc(func(ev explore.Event) error {
		if ev.Kind != explore.KindPath {
			return nil
		}
		if err := fn(StreamedPath{Path: n.pathFromSteps(ev.Steps), Goal: ev.Goal}); err != nil {
			if errors.Is(err, ErrStopStream) {
				return explore.ErrStopEmit
			}
			return err
		}
		return nil
	})
	res, err := explore.Stream(ctx, n.cat, start, end, g.inner, pruners, opt, sink)
	return summarize(res), err
}

// TopKStream is TopKCtx in streaming mode: each of the k best goal paths
// is delivered to fn the moment best-first search pops it, in rank order
// (best first) — the first path arrives after exploring a tiny fraction
// of the graph, long before the search finishes. Delivered paths carry
// Cost/Value and Goal == true. fn may return ErrStopStream to stop
// early; the paths already delivered are still exactly the best ones, in
// order.
func (n *Navigator) TopKStream(ctx context.Context, q Query, g Goal, ranking string, k int, fn func(StreamedPath) error) (Summary, error) {
	ranker, err := rank.ByName(ranking, n.cat.Workloads(), n.probFn())
	if err != nil {
		return Summary{}, err
	}
	return n.topKStream(ctx, q, g, ranker, k, fn)
}

// TopKWeightedStream is TopKStream under a linear combination of ranking
// functions (see TopKWeighted).
func (n *Navigator) TopKWeightedStream(ctx context.Context, q Query, g Goal, weights []Weight, k int, fn func(StreamedPath) error) (Summary, error) {
	if len(weights) == 0 {
		return Summary{}, fmt.Errorf("coursenav: TopKWeightedStream needs at least one weight")
	}
	comps := make([]rank.Component, len(weights))
	for i, w := range weights {
		r, err := rank.ByName(w.Ranking, n.cat.Workloads(), n.probFn())
		if err != nil {
			return Summary{}, err
		}
		comps[i] = rank.Component{Ranker: r, Weight: w.Weight}
	}
	ranker, err := rank.NewWeighted(comps...)
	if err != nil {
		return Summary{}, err
	}
	return n.topKStream(ctx, q, g, ranker, k, fn)
}

func (n *Navigator) topKStream(ctx context.Context, q Query, g Goal, ranker rank.Ranker, k int, fn func(StreamedPath) error) (Summary, error) {
	if fn == nil {
		return Summary{}, fmt.Errorf("coursenav: streaming requires a callback")
	}
	start, end, opt, err := n.compile(q)
	if err != nil {
		return Summary{}, err
	}
	sink := explore.SinkFunc(func(ev explore.Event) error {
		if ev.Kind != explore.KindPath {
			return nil
		}
		p := n.pathFromSteps(ev.Steps)
		p.Cost, p.Value = ev.PathCost, ev.PathValue
		if err := fn(StreamedPath{Path: p, Goal: true}); err != nil {
			if errors.Is(err, ErrStopStream) {
				return explore.ErrStopEmit
			}
			return err
		}
		return nil
	})
	res, err := explore.RankedStream(ctx, n.cat, start, end, g.inner, ranker, k, n.pruners(q, g), opt, sink)
	sum := Summary{
		Nodes: res.Nodes, Edges: res.Edges,
		PrunedTime: res.PrunedTime, PrunedAvail: res.PrunedAvail,
		Paths: int64(len(res.Paths)), GoalPaths: int64(len(res.Paths)),
		Elapsed: res.Elapsed,
		Stopped: res.Stopped, Truncated: res.Truncated,
	}
	return sum, err
}

// DeadlineStreamCollect is DeadlineStream with an opportunistic graph
// collection riding along: paths are delivered to fn exactly as
// DeadlineStream would, and when the run completes cleanly with at most
// maxNodes graph nodes the materialised learning graph is returned too —
// the same graph DeadlineCtx would have built. The graph is nil whenever
// it cannot be collected faithfully: the run stopped early or failed, the
// node count exceeded maxNodes (the condition DeadlineCtx reports as a
// budget error), or Query.Workers > 1 (parallel node ids are not
// globally unique). Collection never disturbs delivery — overflow simply
// stops collecting while paths keep flowing.
func (n *Navigator) DeadlineStreamCollect(ctx context.Context, q Query, maxNodes int, fn func(StreamedPath) error) (*Graph, Summary, error) {
	return n.streamCollect(ctx, q, Goal{}, fn, maxNodes)
}

// GoalStreamCollect is GoalStream with the same opportunistic graph
// collection as DeadlineStreamCollect.
func (n *Navigator) GoalStreamCollect(ctx context.Context, q Query, g Goal, maxNodes int, fn func(StreamedPath) error) (*Graph, Summary, error) {
	if g.inner == nil {
		return nil, Summary{}, fmt.Errorf("coursenav: GoalStreamCollect requires a goal; use DeadlineStreamCollect for unconstrained runs")
	}
	return n.streamCollect(ctx, q, g, fn, maxNodes)
}

func (n *Navigator) streamCollect(ctx context.Context, q Query, g Goal, fn func(StreamedPath) error, maxNodes int) (*Graph, Summary, error) {
	if q.MergeStatuses {
		// Collection rebuilds the materialised graph from edge events,
		// which only the tree walk produces; the DAG unfold has no per-path
		// node identity to collect.
		return nil, Summary{}, ErrMergedStreamUnsupported
	}
	if q.Workers > 1 {
		sum, err := n.stream(ctx, q, g, fn)
		return nil, sum, err
	}
	if fn == nil {
		return nil, Summary{}, fmt.Errorf("coursenav: streaming requires a callback")
	}
	start, end, opt, err := n.compile(q)
	if err != nil {
		return nil, Summary{}, err
	}
	var pruners []explore.Pruner
	if g.inner != nil {
		pruners = n.pruners(q, g)
	}
	// nodes starts at 1 for the root, matching the materialised run's
	// tally, so overflow fires on exactly the graphs DeadlineCtx rejects.
	cc := &cappedCollect{collect: explore.NewCollectSink(start), nodes: 1, max: maxNodes}
	deliver := explore.SinkFunc(func(ev explore.Event) error {
		if ev.Kind != explore.KindPath {
			return nil
		}
		if err := fn(StreamedPath{Path: n.pathFromSteps(ev.Steps), Goal: ev.Goal}); err != nil {
			if errors.Is(err, ErrStopStream) {
				return explore.ErrStopEmit
			}
			return err
		}
		return nil
	})
	res, err := explore.Stream(ctx, n.cat, start, end, g.inner, pruners, opt, explore.Tee(cc, deliver))
	sum := summarize(res)
	if err != nil || cc.overflow {
		return nil, sum, err
	}
	// Renumber into materialised order so the collected graph is
	// indistinguishable — byte for byte once serialised — from the graph
	// DeadlineCtx/GoalCtx would have built for the same query.
	return &Graph{cat: n.cat, g: explore.MaterializedOrder(cc.collect.Graph())}, sum, nil
}

// cappedCollect feeds a CollectSink until the node count exceeds max,
// then silently stops collecting (overflow). Collector trouble must never
// abort the client-facing stream it tees with, so Emit never errors.
type cappedCollect struct {
	collect  *explore.CollectSink
	nodes    int
	max      int
	overflow bool
}

func (c *cappedCollect) Emit(ev explore.Event) error {
	if c.overflow {
		return nil
	}
	if ev.Kind == explore.KindEdge {
		c.nodes++
		if c.max > 0 && c.nodes > c.max {
			c.overflow = true
			return nil
		}
	}
	if c.collect.Emit(ev) != nil {
		c.overflow = true
	}
	return nil
}

// WhatIfStream is CompareSelectionsCtx in streaming mode: each candidate
// selection's impact is delivered to fn the moment its count completes,
// in enumeration order rather than sorted impact order (every delivered
// tally is exact — sort client-side if needed). fn may return
// ErrStopStream to stop early. The returned string is the stop reason,
// empty for a complete comparison.
func (n *Navigator) WhatIfStream(ctx context.Context, q Query, g Goal, fn func(SelectionImpact) error) (string, error) {
	if fn == nil {
		return "", fmt.Errorf("coursenav: streaming requires a callback")
	}
	start, end, opt, err := n.compile(q)
	if err != nil {
		return "", err
	}
	return explore.CompareSelectionsStream(ctx, n.cat, start, end, g.inner, n.pruners(q, g), opt, func(im explore.SelectionImpact) error {
		err := fn(SelectionImpact{
			Courses:     n.cat.IDs(im.Selection),
			GoalPaths:   im.GoalPaths,
			Paths:       im.Paths,
			NextOptions: im.NextOptions,
		})
		if errors.Is(err, ErrStopStream) {
			return explore.ErrStopEmit
		}
		return err
	})
}

// DeadlinePathSeq returns DeadlineStream as a range-over-func iterator:
//
//	for p, err := range nav.DeadlinePathSeq(ctx, q) {
//	    if err != nil { ... }
//	    fmt.Println(p)
//	}
//
// Breaking out of the loop stops the exploration. A run error is yielded
// as the final (zero-path, non-nil error) pair. Use DeadlineStream
// directly when the final Summary is needed.
func (n *Navigator) DeadlinePathSeq(ctx context.Context, q Query) iter.Seq2[StreamedPath, error] {
	return n.seq(func(fn func(StreamedPath) error) error {
		_, err := n.DeadlineStream(ctx, q, fn)
		return err
	})
}

// GoalPathSeq returns GoalStream as a range-over-func iterator (see
// DeadlinePathSeq).
func (n *Navigator) GoalPathSeq(ctx context.Context, q Query, g Goal) iter.Seq2[StreamedPath, error] {
	return n.seq(func(fn func(StreamedPath) error) error {
		_, err := n.GoalStream(ctx, q, g, fn)
		return err
	})
}

// TopKPathSeq returns TopKStream as a range-over-func iterator (see
// DeadlinePathSeq): up to k goal paths, best first.
func (n *Navigator) TopKPathSeq(ctx context.Context, q Query, g Goal, ranking string, k int) iter.Seq2[StreamedPath, error] {
	return n.seq(func(fn func(StreamedPath) error) error {
		_, err := n.TopKStream(ctx, q, g, ranking, k, fn)
		return err
	})
}

// seq adapts a callback-based stream into an iter.Seq2. No goroutines:
// the exploration runs inside the loop body's frames, and breaking the
// loop translates into ErrStopStream.
func (n *Navigator) seq(run func(func(StreamedPath) error) error) iter.Seq2[StreamedPath, error] {
	return func(yield func(StreamedPath, error) bool) {
		err := run(func(p StreamedPath) error {
			if !yield(p, nil) {
				return ErrStopStream
			}
			return nil
		})
		if err != nil {
			yield(StreamedPath{}, err)
		}
	}
}
