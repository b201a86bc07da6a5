package cohort

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro"
)

// SharedPlanner is the cohort Planner. Its counting units run on a
// cross-member shared substrate (coursenav.SharedCounter): one
// interned-status DAG + tally memo per (catalog variant, goal, deadline,
// horizon), built incrementally by whichever member first reaches each
// status and answering every later member's count as a lookup or partial
// DP. A cohort's counting cost then scales with the distinct statuses
// across the whole cohort, not members × rebuilds. Replan units score
// the member's next-semester selections on the scenario catalog.
//
// CountResult.Reused is deliberately NOT derived from substrate hits:
// hit attribution depends on member execution order, which a parallel
// run does not fix, and the runner's summary must be byte-identical at
// any worker count. Substrate reuse is reported out of band via Stats.
// The planner is safe for concurrent use.
type SharedPlanner struct {
	// Base, Scenario and Samples are the catalog variants; Scenario may
	// equal Base for an empty scenario.
	Base     *coursenav.Navigator
	Scenario *coursenav.Navigator
	Samples  []*coursenav.Navigator
	// MakeGoal builds the goal against one variant's catalog (goals are
	// catalog-bound, so each variant needs its own).
	MakeGoal func(*coursenav.Navigator) (coursenav.Goal, error)
	// Query is the unit template: End and the option/constraint fields
	// pin each counter's variant and shape each direct replan;
	// Completed/Start are per-member and ignored. A unit's own end (the
	// probe's extended deadlines) overrides Query.End.
	Query coursenav.Query
	// Unit, when set, threads each counting unit's substrate execution
	// through the serving pipeline (cache → coalesce → admission) — the
	// server wires runUnit here so shared-substrate units stay
	// individually priced, time-bounded and cached. Nil executes directly.
	Unit UnitWrapper
	// HorizonUnit is Unit's multi-deadline counterpart for the delay
	// probe's units. Nil executes directly.
	HorizonUnit HorizonUnitWrapper
	// ReplanUnit, when set, runs each replan unit in place of the direct
	// comparison — the server wires its pipeline replan here, so what-if
	// units share the interactive endpoint's cache, budgets and bytes.
	// goal is the scenario catalog's goal from the planner's cache.
	ReplanUnit func(ctx context.Context, m Member, end string, goal coursenav.Goal) (Replan, error)

	mu       sync.Mutex
	goals    map[*coursenav.Navigator]coursenav.Goal
	counters map[counterKey]*coursenav.SharedCounter
}

// counterKey addresses one shared counter: a catalog variant, the
// deadline it counts to and how many semesters past it it answers.
type counterKey struct {
	v       Variant
	end     string
	horizon int
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

func (p *SharedPlanner) nav(v Variant) (*coursenav.Navigator, error) {
	switch v.Kind {
	case KindScenario:
		return p.Scenario, nil
	case KindBase:
		return p.Base, nil
	case KindSample:
		if v.Sample < 0 || v.Sample >= len(p.Samples) {
			return nil, fmt.Errorf("cohort: sample %d out of range", v.Sample)
		}
		return p.Samples[v.Sample], nil
	}
	return nil, fmt.Errorf("cohort: unknown variant kind %d", v.Kind)
}

// Goal returns the variant's goal, built by MakeGoal on first use and
// then shared by every counter and replan on that catalog, so a job
// builds each variant's goal once. Callers outside the planner (the
// server synthesises members toward the base goal) share it too.
func (p *SharedPlanner) Goal(v Variant) (coursenav.Goal, error) {
	nav, err := p.nav(v)
	if err != nil {
		return coursenav.Goal{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.goalLocked(nav)
}

// goalLocked returns nav's goal from the goal cache. p.mu must be held.
func (p *SharedPlanner) goalLocked(nav *coursenav.Navigator) (coursenav.Goal, error) {
	if g, ok := p.goals[nav]; ok {
		return g, nil
	}
	g, err := p.MakeGoal(nav)
	if err != nil {
		return coursenav.Goal{}, err
	}
	if p.goals == nil {
		p.goals = map[*coursenav.Navigator]coursenav.Goal{}
	}
	p.goals[nav] = g
	return g, nil
}

// counterFor resolves (variant, end, horizon) to its shared counter,
// creating it lazily. The horizon-extended scenario counter is a
// separate (larger) substrate created only when the first member
// actually strands — an all-on-time cohort never pays for it.
func (p *SharedPlanner) counterFor(v Variant, end string, horizon int) (*coursenav.SharedCounter, error) {
	key := counterKey{v: v, end: end, horizon: horizon}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.counters[key]; ok {
		return c, nil
	}
	nav, err := p.nav(v)
	if err != nil {
		return nil, err
	}
	goal, err := p.goalLocked(nav)
	if err != nil {
		return nil, err
	}
	q := p.Query
	q.End = end
	q.Completed, q.Start = nil, ""
	c, err := nav.NewSharedCounter(q, goal, horizon, 0)
	if err != nil {
		return nil, err
	}
	if p.counters == nil {
		p.counters = map[counterKey]*coursenav.SharedCounter{}
	}
	p.counters[key] = c
	return c, nil
}

// Count implements Planner on the shared substrate: a horizon-0 counter
// per (variant, end) answers the member's on-time tally. With a Unit
// wrapper the execution also flows through the serving pipeline, so
// cache hits and coalesced flights behave as for any other unit.
func (p *SharedPlanner) Count(ctx context.Context, m Member, end string, v Variant) (CountResult, error) {
	c, err := p.counterFor(v, end, 0)
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
// The substrate has no per-run budget clamps, so a count is exact or an
// error: a unit that cannot finish inside its context deadline fails
// (recorded on the member), never a lower bound.
func (p *SharedPlanner) CountHorizons(ctx context.Context, m Member, end string, horizon int, v Variant) (HorizonCounts, error) {
	c, err := p.counterFor(v, end, horizon)
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

// replanBody is the interactive whatif endpoint's response shape, so a
// direct replan's record reads the same as one the server renders.
type replanBody struct {
	Selections []coursenav.SelectionImpact `json:"selections"`
	Stopped    string                      `json:"stopped,omitempty"`
}

// Replan implements Planner: the member's next-semester selection
// comparison against the scenario catalog, through ReplanUnit when set.
// What-if units are path-shaped (per-selection impact bodies), so they
// run the façade's comparison rather than a shared counter.
func (p *SharedPlanner) Replan(ctx context.Context, m Member, end string) (Replan, error) {
	goal, err := p.Goal(Variant{Kind: KindScenario})
	if err != nil {
		return Replan{}, err
	}
	if p.ReplanUnit != nil {
		return p.ReplanUnit(ctx, m, end, goal)
	}
	q := p.Query
	q.Completed, q.Start, q.End = m.Completed, m.Start, end
	impacts, stopped, err := p.Scenario.CompareSelectionsCtx(ctx, q, goal)
	if err != nil {
		return Replan{}, err
	}
	body, err := json.Marshal(replanBody{Selections: impacts, Stopped: stopped})
	if err != nil {
		return Replan{}, err
	}
	return Replan{Body: body}, nil
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
