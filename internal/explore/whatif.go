package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/status"
	"repro/internal/term"
)

// SelectionImpact scores one candidate selection for the current
// semester by its downstream consequences.
type SelectionImpact struct {
	// Selection is the candidate course set W for the current semester.
	Selection bitset.Set
	// GoalPaths counts the goal-reaching paths that remain available
	// after electing the selection.
	GoalPaths int64
	// Paths counts all remaining generated paths.
	Paths int64
	// NextOptions is the size of the option set Y one semester later.
	NextOptions int
}

// CompareSelections answers the paper's motivating what-if query
// ("which course selections increase my future course options and number
// of possible paths to a CS major?", §1): it enumerates every selection
// the student could make in the current semester — honouring MaxPerTerm,
// the empty-selection policy and Options.Constraints — and, for each,
// counts the goal paths from the resulting enrollment status. Results
// are sorted by descending GoalPaths (ties: more next-semester options,
// then smaller selections first).
//
// Unless Options.Substrate forces the tree walk, every candidate is
// counted by one memoised tally over distinct statuses, so the total work
// is bounded by the goal-driven DAG size rather than candidates × tree.
func CompareSelections(cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) ([]SelectionImpact, error) {
	out, _, err := CompareSelectionsCtx(context.Background(), cat, start, end, goal, pruners, opt)
	return out, err
}

// CompareSelectionsCtx is CompareSelections under a context. A cancelled
// or over-budget run returns the candidates fully scored before the stop
// (their tallies are exact) together with the stop reason; candidates
// whose count was interrupted are dropped rather than reported with
// partial tallies.
func CompareSelectionsCtx(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options) ([]SelectionImpact, string, error) {
	var out []SelectionImpact
	stopped, err := CompareSelectionsStream(ctx, cat, start, end, goal, pruners, opt, func(im SelectionImpact) error {
		out = append(out, im)
		return nil
	})
	if err != nil {
		return nil, stopped, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].GoalPaths != out[j].GoalPaths {
			return out[i].GoalPaths > out[j].GoalPaths
		}
		if out[i].NextOptions != out[j].NextOptions {
			return out[i].NextOptions > out[j].NextOptions
		}
		return out[i].Selection.Len() < out[j].Selection.Len()
	})
	return out, stopped, nil
}

// CompareSelectionsStream is the streaming what-if engine behind
// CompareSelectionsCtx: each candidate selection is delivered to fn as
// soon as its count completes, in enumeration order (not impact order —
// sort client-side, or use CompareSelectionsCtx for the sorted slice).
// Every delivered impact carries exact tallies. fn returning ErrStopEmit
// ends the run cleanly with stopped == StopSink; any other error aborts
// the run and is returned.
//
// Unless Options.Substrate forces the tree walk, candidates are scored
// by one request-scoped SharedCounter (see whatIfDAG): subtrees common to
// several candidates are counted once. The tree path re-counts each
// candidate with the plain walk — the oracle the DAG path is tested
// against — and can attribute partial work, so a budget-stopped tree run
// delivers the candidates scored before the stop while a stopped DAG run
// delivers none (per-candidate shares of shared work are
// unattributable). Options.Workers does not fan what-if out.
func CompareSelectionsStream(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, fn func(SelectionImpact) error) (string, error) {
	if goal == nil {
		return "", fmt.Errorf("explore: CompareSelections requires a goal")
	}
	if fn == nil {
		return "", fmt.Errorf("explore: CompareSelectionsStream requires a callback")
	}
	if err := validate(cat, start, end, opt); err != nil {
		return "", err
	}
	if opt.Substrate != SubstrateTree {
		return whatIfDAG(ctx, cat, start, end, goal, pruners, opt, fn)
	}
	e := newEngine(cat, end, goal, pruners, opt)
	ctl := newControl(ctx, opt.Budget)
	stopped := ""
	err := e.selections(start, 0, func(w bitset.Set) error {
		if r := ctl.haltReason(); r != "" {
			stopped = r
			return errStopRun
		}
		child := start.Advance(cat, w)
		impact := SelectionImpact{Selection: w, NextOptions: child.Options.Len()}
		if !child.Term.Before(end) {
			// The child sits at the end semester: it is itself the path
			// endpoint, a goal path iff the goal is now satisfied.
			if goal.Satisfied(child.Completed) {
				impact.GoalPaths, impact.Paths = 1, 1
			} else {
				impact.Paths = 1
			}
		} else {
			res, err := GoalCountCtx(ctx, cat, child, end, goal, pruners, opt)
			if err != nil {
				return err
			}
			if res.Stopped != "" {
				stopped = res.Stopped
				return errStopRun
			}
			impact.GoalPaths, impact.Paths = res.GoalPaths, res.Paths
		}
		return fn(impact)
	})
	switch {
	case errors.Is(err, errStopRun):
		err = nil
	case errors.Is(err, ErrStopEmit):
		err = nil
		stopped = StopSink
	}
	return stopped, err
}

// whatIfDAG scores every candidate selection with one request-scoped
// SharedCounter (horizon 0, uncapped): each candidate's resulting status
// is a root of the counter's memoised tally, so statuses reachable from
// several candidates are expanded once, not once per candidate.
// Candidates landing at the end semester are their own path endpoint and
// are scored inline, exactly as the tree path does. The counter's engine
// carries the run control, so a budget or cancellation stops its build;
// a stopped run delivers no candidates — per-candidate shares of the
// shared work are unattributable — and returns the stop reason.
func whatIfDAG(ctx context.Context, cat *catalog.Catalog, start status.Status, end term.Term, goal degree.Goal, pruners []Pruner, opt Options, fn func(SelectionImpact) error) (string, error) {
	sc, err := NewSharedCounter(cat, end, 0, goal, pruners, opt, math.MaxInt64)
	if err != nil {
		return "", err
	}
	e := sc.e
	e.ctl = newControl(ctx, opt.Budget)
	type candidate struct {
		impact SelectionImpact
		child  status.Status // zero when scored inline (end-semester child)
	}
	// Candidate enumeration runs before the first build: a build points
	// the engine's selection scratch (engine.selScratch) at the counter's
	// per-depth sets, and the candidate sets collected here must be
	// retained, not reused.
	var cands []candidate
	stopped := ""
	err = e.selections(start, 0, func(w bitset.Set) error {
		if r := e.ctl.haltReason(); r != "" {
			stopped = r
			return errStopRun
		}
		child := e.advance(start, w)
		c := candidate{impact: SelectionImpact{Selection: w, NextOptions: child.Options.Len()}}
		if child.Term.Before(end) {
			c.child = child
		} else {
			// The child sits at the end semester: it is itself the path
			// endpoint, a goal path iff the goal is now satisfied.
			c.impact.Paths = 1
			if e.goal.Satisfied(child.Completed) {
				c.impact.GoalPaths = 1
			}
		}
		cands = append(cands, c)
		return nil
	})
	if err != nil && !errors.Is(err, errStopRun) {
		return stopped, err
	}
	if stopped != "" {
		return stopped, nil
	}
	var tally [1]int64 // each answer's goal tally, read before the next
	for i := range cands {
		c := &cands[i]
		if c.child.Term.IsZero() {
			continue
		}
		counts, err := sc.countsInto(ctx, c.child, tally[:])
		if err != nil {
			if r := e.ctl.haltReason(); r != "" {
				return r, nil
			}
			return "", err
		}
		c.impact.Paths, c.impact.GoalPaths = counts.Paths, counts.GoalPaths[0]
	}
	// A path budget can run out on a build's last charge, which ends the
	// build without an error.
	if r := e.ctl.reason(); r != "" {
		return r, nil
	}
	for _, c := range cands {
		if err := fn(c.impact); err != nil {
			if errors.Is(err, ErrStopEmit) {
				return StopSink, nil
			}
			return "", err
		}
	}
	return "", nil
}
