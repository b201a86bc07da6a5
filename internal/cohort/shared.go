package cohort

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro"
)

// SharedPlanner executes counting units on a cross-member shared
// substrate (coursenav.SharedCounter): one interned-status DAG + tally
// memo per (catalog variant, goal, deadline, horizon), built
// incrementally by whichever member first reaches each status and
// answering every later member's count as a lookup or partial DP. A
// cohort's counting cost then scales with the distinct statuses across
// the whole cohort, not members × rebuilds.
//
// Replan units (and anything else path-shaped) delegate to Inner.
// CountResult.Reused is deliberately NOT derived from substrate hits:
// hit attribution depends on member execution order, which a parallel
// run does not fix, and the runner's summary must be byte-identical at
// any worker count. Substrate reuse is reported out of band via Stats.
// The planner is safe for concurrent use.
type SharedPlanner struct {
	// Inner handles Replan units; counting always runs on the substrate.
	Inner Planner
	// Base, Scenario and Samples are the catalog variants (same contract
	// as NavPlanner).
	Base     *coursenav.Navigator
	Scenario *coursenav.Navigator
	Samples  []*coursenav.Navigator
	// MakeGoal builds the goal against one variant's catalog.
	MakeGoal func(*coursenav.Navigator) (coursenav.Goal, error)
	// Query is the unit template: End and the option/constraint fields
	// pin each counter's variant; Completed/Start are per-member and
	// ignored. A unit's own end (the probe's extended deadlines)
	// overrides Query.End.
	Query coursenav.Query
	// MaxStatuses bounds each counter's interned statuses (0 = the
	// engine default, ~1M statuses ≈ 50–100 MB); over budget a counter
	// answers, then evicts wholesale.
	MaxStatuses int64
	// Unit, when set, threads each counting unit's substrate execution
	// through the serving pipeline (cache → coalesce → admission) — the
	// server wires runUnit here so shared-substrate units stay
	// individually priced, budgeted and cached. Nil executes directly.
	Unit UnitWrapper
	// HorizonUnit is Unit's multi-deadline counterpart for the delay
	// probe's units. Nil executes directly.
	HorizonUnit HorizonUnitWrapper

	mu       sync.Mutex
	goals    map[*coursenav.Navigator]coursenav.Goal
	counters map[string]*coursenav.SharedCounter
}

// SharedCount is one substrate execution's outcome, handed to the
// server's unit wrapper for body rendering.
type SharedCount struct {
	// Paths / GoalPaths are the unit's tallies (GoalPaths at the unit's
	// own deadline); Nodes the statuses this execution newly interned.
	Paths, GoalPaths, Nodes int64
	// Hit reports the answer was a pure root lookup.
	Hit bool
}

// SharedHorizons is one multi-deadline substrate execution's outcome:
// GoalPaths[h] counts goal paths by deadline end+h.
type SharedHorizons struct {
	Paths     int64
	GoalPaths []int64
	Nodes     int64
	Hit       bool
}

// CountExec runs one counting unit on the shared substrate.
type CountExec func(ctx context.Context) (SharedCount, error)

// HorizonExec runs one multi-deadline counting unit on the shared
// substrate.
type HorizonExec func(ctx context.Context) (SharedHorizons, error)

// UnitWrapper threads a substrate execution through a serving pipeline;
// see SharedPlanner.Unit.
type UnitWrapper func(ctx context.Context, m Member, end string, v Variant, exec CountExec) (CountResult, error)

// HorizonUnitWrapper is UnitWrapper's multi-deadline counterpart; see
// SharedPlanner.HorizonUnit.
type HorizonUnitWrapper func(ctx context.Context, m Member, end string, horizon int, v Variant, exec HorizonExec) (HorizonCounts, error)

// SharedPlannerStats aggregates the substrate tallies across every
// variant counter the planner has built.
type SharedPlannerStats struct {
	// Hits counts units answered by a pure root lookup; DPReused counts
	// statuses reused across member builds (the cross-member amortisation
	// the substrate exists for).
	Hits, DPReused int64
	// Statuses is the current interned total; Builds and Evictions count
	// DP runs and wholesale budget evictions.
	Statuses, Builds, Evictions int64
}

func (p *SharedPlanner) nav(v Variant) (*coursenav.Navigator, string, error) {
	switch v.Kind {
	case KindScenario:
		return p.Scenario, "s", nil
	case KindBase:
		return p.Base, "b", nil
	case KindSample:
		if v.Sample < 0 || v.Sample >= len(p.Samples) {
			return nil, "", fmt.Errorf("cohort: sample %d out of range", v.Sample)
		}
		return p.Samples[v.Sample], fmt.Sprintf("m%d", v.Sample), nil
	}
	return nil, "", fmt.Errorf("cohort: unknown variant kind %d", v.Kind)
}

// counterFor resolves (variant, end, horizon) to its shared counter,
// creating it lazily. The horizon-extended scenario counter is a
// separate (larger) substrate created only when the first member
// actually strands — an all-on-time cohort never pays for it.
func (p *SharedPlanner) counterFor(nav *coursenav.Navigator, vid, end string, horizon int) (*coursenav.SharedCounter, error) {
	key := vid + "|" + end + "|" + strconv.Itoa(horizon)
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.counters[key]; ok {
		return c, nil
	}
	goal, ok := p.goals[nav]
	if !ok {
		g, err := p.MakeGoal(nav)
		if err != nil {
			return nil, err
		}
		if p.goals == nil {
			p.goals = map[*coursenav.Navigator]coursenav.Goal{}
		}
		p.goals[nav] = g
		goal = g
	}
	q := p.Query
	q.End = end
	q.Completed, q.Start = nil, ""
	c, err := nav.NewSharedCounter(q, goal, horizon, p.MaxStatuses)
	if err != nil {
		return nil, err
	}
	if p.counters == nil {
		p.counters = map[string]*coursenav.SharedCounter{}
	}
	p.counters[key] = c
	return c, nil
}

// Count implements Planner on the shared substrate: a horizon-0 counter
// per (variant, end) answers the member's on-time tally. With a Unit
// wrapper the execution also flows through the serving pipeline, so
// cache hits and coalesced flights behave exactly as the per-unit path.
func (p *SharedPlanner) Count(ctx context.Context, m Member, end string, v Variant) (CountResult, error) {
	nav, vid, err := p.nav(v)
	if err != nil {
		return CountResult{}, err
	}
	c, err := p.counterFor(nav, vid, end, 0)
	if err != nil {
		return CountResult{}, err
	}
	exec := func(ctx context.Context) (SharedCount, error) {
		sc, err := c.Counts(ctx, m.Completed, m.Start)
		if err != nil {
			return SharedCount{}, err
		}
		return SharedCount{Paths: sc.Paths, GoalPaths: sc.GoalPaths[0], Nodes: sc.NewStatuses, Hit: sc.Hit}, nil
	}
	if p.Unit != nil {
		return p.Unit(ctx, m, end, v, exec)
	}
	sc, err := exec(ctx)
	if err != nil {
		return CountResult{}, err
	}
	return CountResult{GoalPaths: sc.GoalPaths}, nil
}

// CountHorizons implements Planner: the probe's multi-deadline unit,
// answered by the horizon-extended scenario counter in one partial DP.
// The substrate has no per-run budget clamps, so there is no Stopped
// lower bound — a unit that cannot finish inside its context deadline
// fails with an error instead (recorded on the member).
func (p *SharedPlanner) CountHorizons(ctx context.Context, m Member, end string, horizon int, v Variant) (HorizonCounts, error) {
	nav, vid, err := p.nav(v)
	if err != nil {
		return HorizonCounts{}, err
	}
	c, err := p.counterFor(nav, vid, end, horizon)
	if err != nil {
		return HorizonCounts{}, err
	}
	exec := func(ctx context.Context) (SharedHorizons, error) {
		sc, err := c.Counts(ctx, m.Completed, m.Start)
		if err != nil {
			return SharedHorizons{}, err
		}
		return SharedHorizons{Paths: sc.Paths, GoalPaths: sc.GoalPaths, Nodes: sc.NewStatuses, Hit: sc.Hit}, nil
	}
	if p.HorizonUnit != nil {
		return p.HorizonUnit(ctx, m, end, horizon, v, exec)
	}
	sc, err := exec(ctx)
	if err != nil {
		return HorizonCounts{}, err
	}
	return HorizonCounts{GoalPaths: sc.GoalPaths}, nil
}

// Replan implements Planner by delegation: what-if units are
// path-shaped (per-selection impact bodies), which the counting
// substrate does not model.
func (p *SharedPlanner) Replan(ctx context.Context, m Member, end string) (Replan, error) {
	return p.Inner.Replan(ctx, m, end)
}

// Stats aggregates substrate tallies across every counter built so far.
func (p *SharedPlanner) Stats() SharedPlannerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out SharedPlannerStats
	for _, c := range p.counters {
		st := c.Stats()
		out.Hits += st.Hits
		out.DPReused += st.ReusedStatuses
		out.Statuses += st.Statuses
		out.Builds += st.Builds
		out.Evictions += st.Evictions
	}
	return out
}
