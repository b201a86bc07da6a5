// The cohort endpoint: batch scenario simulation on the unit-of-work
// layer (unit.go).
//
// POST /api/v1[/t/{tenant}]/cohort replans every member of a cohort
// against a catalog scenario and streams one NDJSON record per student
// — O(member) memory regardless of cohort size — with a trailing
// aggregate summary. Each member decomposes into counting (and
// optionally what-if) units executed through runUnit, so every unit is
// individually priced by the admission estimator, individually
// time-bounded (RequestTimeout, budget.timeoutMs and brownout's timeout
// clamp apply per unit, not per job; node and path budgets bound only
// what-if units, as counts run on shared counters), and keyed into the
// tenant's result cache: members sharing a canonical sub-request
// coalesce with each other and with interactive traffic.
// For an empty scenario the units use the interactive endpoints' own
// cache key space ("goal", "whatif"), so a cohort-of-1 detail replan is
// byte-identical to the corresponding /api/v1/explore/whatif response —
// a tested invariant. Non-empty scenarios fold the scenario digest into
// the key space so deltas can never alias the live catalog.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cohort"
	"repro/internal/resultcache"
	"repro/internal/term"
	"repro/internal/transcript"
)

// maxCohortBodyBytes caps the cohort request body. Inline transcripts
// or explicit member lists for institutional cohorts are far larger
// than an interactive request, so the cap is its own, not decode()'s.
const maxCohortBodyBytes = 16 << 20

// Cohort job shape limits: honest 400s beat unbounded fan-out.
const (
	maxCohortMembers = 100_000
	maxCohortSamples = 64
	maxCohortHorizon = 16
	maxCohortWorkers = 16
)

// DefaultCohortWorkers is the member-pipeline width when neither the
// request nor Server.CohortWorkers says otherwise. Workers are admitted
// individually (and never hold exploration slots between units), so the
// default adds concurrency without bypassing admission control.
const DefaultCohortWorkers = 4

// synthesizeSpec asks the server to synthesise the cohort from seeds:
// n goal-reaching students generated over [query.start, query.end] and
// truncated to random mid-degree positions. Equal (catalog, goal,
// window, n, seed) synthesise byte-identical cohorts.
type synthesizeSpec struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed,omitempty"`
}

// cohortRequest is the POST /api/v1/cohort body. Exactly one member
// source — members, transcripts or synthesize — must be set.
type cohortRequest struct {
	// Scenario is the catalog delta to replan against; the zero value
	// replans against the live catalog.
	Scenario cohort.Scenario `json:"scenario"`
	// Members lists explicit replanning positions.
	Members []cohort.Member `json:"members,omitempty"`
	// Transcripts carries inline transcript text (the dump format of
	// internal/transcript); members derive from replaying them.
	Transcripts string `json:"transcripts,omitempty"`
	// Synthesize generates the cohort from seeds.
	Synthesize *synthesizeSpec `json:"synthesize,omitempty"`
	// Query templates every member's sub-exploration: end (required) is
	// the common deadline, maxPerTerm/avoid/workload bounds apply to all
	// members. completed/start/countOnly are per-member and rejected.
	Query QuerySpec `json:"query"`
	// Goal is the degree goal every member is replanned toward.
	Goal *GoalSpec `json:"goal,omitempty"`
	// Budget bounds each member's sub-explorations individually.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Horizon bounds the delay probe (semesters past end; default 4).
	Horizon int `json:"horizon,omitempty"`
	// Workers sets the member-pipeline width: how many members replan
	// concurrently (each unit still individually admitted). 0 means the
	// server default; 1 forces the serial pipeline. Output is identical
	// at any width.
	Workers int `json:"workers,omitempty"`
	// Baseline adds an unmodified-catalog count per member.
	Baseline bool `json:"baseline,omitempty"`
	// Detail embeds each member's what-if replan body in their record.
	Detail bool `json:"detail,omitempty"`
}

type cohortMemberRecord struct {
	Member cohort.MemberRecord `json:"member"`
}

type cohortSummaryRecord struct {
	Summary cohort.Summary `json:"summary"`
}

func (s *Server) handleCohort(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req cohortRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCohortBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	// Generation before navigator, as everywhere: results are never keyed
	// under a newer generation than the catalog that produced them.
	gen := t.gen()
	nav := t.navigator()
	cat := nav.Catalog()

	if req.Goal == nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing goal")
		return
	}
	if req.Query.CountOnly {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"query.countOnly does not apply to cohort: member units are counting runs already")
		return
	}
	if len(req.Query.Completed) > 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"query.completed does not apply to cohort: members carry their own completed sets")
		return
	}
	sources := 0
	if len(req.Members) > 0 {
		sources++
	}
	if strings.TrimSpace(req.Transcripts) != "" {
		sources++
	}
	if req.Synthesize != nil {
		sources++
	}
	if sources != 1 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"provide exactly one member source: members, transcripts or synthesize")
		return
	}
	if req.Horizon < 0 || req.Horizon > maxCohortHorizon {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"horizon must be in [0, %d]", maxCohortHorizon)
		return
	}
	if req.Workers < 0 || req.Workers > maxCohortWorkers {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"workers must be in [0, %d]", maxCohortWorkers)
		return
	}
	if req.Scenario.Samples < 0 || req.Scenario.Samples > maxCohortSamples {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"scenario.samples must be in [0, %d]", maxCohortSamples)
		return
	}

	// Canonicalize the shared template once; member fields are folded in
	// per unit. The same canonical forms derive cache keys, so identical
	// positions coalesce across members, jobs and interactive requests.
	tmpl := &ExploreRequest{Query: req.Query, Goal: req.Goal, Budget: req.Budget}
	canonicalize(nav, tmpl)
	req.Query, req.Goal = tmpl.Query, tmpl.Goal
	if req.Query.End == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing query.end (the cohort deadline)")
		return
	}
	if _, err := term.Parse(cat.Calendar(), req.Query.End); err != nil {
		s.writeNavErr(w, err)
		return
	}

	// Scenario catalogs: the delta applied once per job, Monte-Carlo
	// schedules sampled from the scenario catalog (deltas compose with
	// sampling).
	req.Scenario.Canonicalize(nav.CanonicalCourse)
	if req.Scenario.ReleasedThrough == "" {
		req.Scenario.ReleasedThrough = req.Query.Start
	}
	scenCat, err := req.Scenario.Apply(cat)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	scenNav := nav
	if scenCat != cat {
		scenNav = coursenav.NewFromCatalog(scenCat)
	}
	sampleCats, err := req.Scenario.SampleSchedules(scenCat)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	sampleNavs := make([]*coursenav.Navigator, len(sampleCats))
	for i, sc := range sampleCats {
		sampleNavs[i] = coursenav.NewFromCatalog(sc)
	}

	horizon := req.Horizon
	if horizon == 0 {
		horizon = cohort.DefaultHorizon
	}
	pl := &serverPlanner{
		s: s, t: t, gen: gen,
		baseNav: nav, scenNav: scenNav, sampleNavs: sampleNavs,
		scenario: &req.Scenario,
		goal:     req.Goal,
		template: req.Query,
		budget:   req.Budget,
		horizon:  horizon,
	}
	// The job's counting units run on a shared substrate — one interned
	// DAG + tally memo per catalog variant, built across members — with
	// each execution threaded through runUnit, so per-unit pricing, time
	// bounds and the result cache apply to every unit. Replans
	// (path-shaped) run the interactive what-if through runUnit too. Its
	// goal cache is the job's only one: synthesis, counters and replans
	// all take their goals from it.
	shared := &cohort.SharedPlanner{
		Base:     nav,
		Scenario: scenNav,
		Samples:  sampleNavs,
		MakeGoal: func(nv *coursenav.Navigator) (coursenav.Goal, error) {
			return buildGoal(nv, *req.Goal)
		},
		Query:       s.query(req.Query, req.Budget),
		Unit:        pl.sharedUnit,
		HorizonUnit: pl.sharedHorizonUnit,
		ReplanUnit:  pl.replan,
	}
	members, err := s.cohortMembers(nav, cat, &req, shared)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	if len(members) > maxCohortMembers {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"cohort of %d exceeds the %d-member limit", len(members), maxCohortMembers)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.CohortWorkers
	}
	if workers <= 0 {
		workers = DefaultCohortWorkers
	}
	runner := cohort.Runner{
		Planner: shared,
		Opts: cohort.Options{
			End:      req.Query.End,
			Horizon:  horizon,
			Baseline: req.Baseline,
			Detail:   req.Detail,
			Samples:  req.Scenario.Samples,
			Calendar: cat.Calendar(),
			Workers:  workers,
		},
		// Extra pipeline workers are admitted by probing the tenant quota
		// and the global pool (and releasing immediately — units acquire
		// their own slots inside runUnit): a saturated server runs the job
		// serially instead of amplifying the overload.
		AdmitWorker: func(ctx context.Context) (func(), bool) {
			relT, ok := t.acquireQuota()
			if !ok {
				return nil, false
			}
			relG, ok := s.acquire()
			if !ok {
				relT()
				return nil, false
			}
			return func() { relG(); relT() }, true
		},
	}
	// The job runs under the client connection's context: mid-stream
	// cancellation stops the in-flight unit within one engine step and
	// aborts the run. Budgets and RequestTimeout apply per UNIT (inside
	// the planner), not to the job — a 10k-member job legitimately
	// outlives any single exploration's cap.
	sw := s.newStreamWriter(w)
	defer sw.close()
	sum, runErr := runner.Run(r.Context(), members, func(rec cohort.MemberRecord) error {
		return sw.record(appendMemberRecord(sw.buf[:0], cohortMemberRecord{Member: rec}))
	})
	if ev := usageEvent(w); ev != nil {
		ev.Cohort = true
		ev.CohortMembers = int64(sum.Members)
		ev.CohortCoalesced = sum.Coalesced
		sst := shared.Stats()
		ev.CohortSharedHits = sst.Hits
		ev.CohortDPReused = sst.DPReused
		ev.CohortCancelled = runErr != nil &&
			(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) || sw.err != nil)
		ev.Window = req.Query.Start + " → " + req.Query.End
		ev.Paths = int64(sum.Members)
	}
	s.finishStream(w, sw, runErr, func(dst []byte) ([]byte, error) {
		return appendCohortSummaryRecord(dst, cohortSummaryRecord{Summary: sum})
	})
}

// cohortMembers resolves the request's member source into canonical
// members: completed sets resolved/sorted/deduplicated and starts
// trimmed, so equal positions produce equal unit cache keys. Synthesis
// walks toward the base catalog's goal from the job's planner.
func (s *Server) cohortMembers(nav *coursenav.Navigator, cat *catalog.Catalog, req *cohortRequest, pl *cohort.SharedPlanner) ([]cohort.Member, error) {
	var members []cohort.Member
	switch {
	case len(req.Members) > 0:
		members = req.Members
		for i := range members {
			canonCourseSet(nav, &members[i].Completed)
			members[i].Start = strings.TrimSpace(members[i].Start)
			if members[i].Start == "" {
				return nil, fmt.Errorf("member %d (%s) missing start", i, members[i].Student)
			}
			if members[i].Student == "" {
				members[i].Student = fmt.Sprintf("M%04d", i+1)
			}
		}
	case strings.TrimSpace(req.Transcripts) != "":
		trs, err := transcript.Parse(strings.NewReader(req.Transcripts), cat.Calendar())
		if err != nil {
			return nil, err
		}
		members, err = cohort.FromTranscripts(nav.Catalog(), trs, req.Query.MaxPerTerm)
		if err != nil {
			return nil, err
		}
	default:
		sp := req.Synthesize
		if sp.N <= 0 || sp.N > maxCohortMembers {
			return nil, fmt.Errorf("synthesize.n must be in [1, %d]", maxCohortMembers)
		}
		if req.Query.Start == "" {
			return nil, fmt.Errorf("synthesize requires query.start (the generation window's first semester)")
		}
		start, err := term.Parse(cat.Calendar(), req.Query.Start)
		if err != nil {
			return nil, err
		}
		end, err := term.Parse(cat.Calendar(), req.Query.End)
		if err != nil {
			return nil, err
		}
		goal, err := pl.Goal(cohort.Variant{Kind: cohort.KindBase})
		if err != nil {
			return nil, err
		}
		members, err = cohort.Synthesize(nav.Catalog(), goal.Inner(), start, end,
			req.Query.MaxPerTerm, sp.N, rand.New(rand.NewSource(sp.Seed)))
		if err != nil {
			return nil, err
		}
	}
	return members, nil
}

// serverPlanner executes cohort units through the serving pipeline:
// each unit is an ExploreRequest in the same canonical form the
// interactive handlers produce, run through runUnit (cache → coalesce →
// admission → engine). It supplies the SharedPlanner's unit hooks.
// Variant selection maps to endpoint key spaces: the base catalog uses
// the interactive endpoints' own spaces ("goal", "whatif") — as does an
// empty scenario — while a non-empty delta and each Monte-Carlo sample
// get digest-suffixed spaces of their own.
type serverPlanner struct {
	s          *Server
	t          *tenantState
	gen        uint64
	baseNav    *coursenav.Navigator
	scenNav    *coursenav.Navigator
	sampleNavs []*coursenav.Navigator
	scenario   *cohort.Scenario
	// goal is the job's canonical goal, shared read-only by every unit.
	goal     *GoalSpec
	template QuerySpec
	budget   *BudgetSpec
	// horizon is the job's delay-probe horizon, the <h> of its
	// "goalmh<h>" spaces.
	horizon int

	keysOnce sync.Once // derives spaces (see keys)
	spaces   []unitSpaces
}

// unitSpaces holds one catalog variant's endpoint key spaces, one per
// kind of unit: counts ("goal"), delay probes ("goalmh<h>") and replans
// ("whatif").
type unitSpaces struct {
	goal, goalmh, whatif string
}

// keys returns the key spaces of the base catalog, the scenario and then
// each sample, derived once per job: a digest is a reflective JSON
// encode and a SHA-256, and every unit asks for a space. An empty
// scenario has no suffix, so its units share the base spaces.
func (p *serverPlanner) keys() []unitSpaces {
	p.keysOnce.Do(func() {
		goalmh := "goalmh" + strconv.Itoa(p.horizon)
		suffixed := func(suffix string) unitSpaces {
			return unitSpaces{goal: "goal" + suffix, goalmh: goalmh + suffix, whatif: "whatif" + suffix}
		}
		scenKey := ""
		if !p.scenario.Empty() {
			scenKey = "|cohort:" + p.scenario.Digest()
		}
		p.spaces = make([]unitSpaces, 2, 2+len(p.sampleNavs))
		p.spaces[0], p.spaces[1] = suffixed(""), suffixed(scenKey)
		for i := range p.sampleNavs {
			p.spaces = append(p.spaces, suffixed("|cohort:"+p.scenario.SampleKey(i)))
		}
	})
	return p.spaces
}

// variant resolves a cohort variant to its navigator and key spaces.
func (p *serverPlanner) variant(v cohort.Variant) (*coursenav.Navigator, *unitSpaces, error) {
	spaces := p.keys()
	switch v.Kind {
	case cohort.KindBase:
		return p.baseNav, &spaces[0], nil
	case cohort.KindScenario:
		return p.scenNav, &spaces[1], nil
	case cohort.KindSample:
		if v.Sample < 0 || v.Sample >= len(p.sampleNavs) {
			return nil, nil, fmt.Errorf("cohort: sample %d out of range", v.Sample)
		}
		return p.sampleNavs[v.Sample], &spaces[2+v.Sample], nil
	}
	return nil, nil, fmt.Errorf("cohort: unknown variant kind %d", v.Kind)
}

// unitReq folds one member into the job's canonical template. The
// template and member are already canonical, so the result marshals to
// the same blob an interactive request with these fields would.
func (p *serverPlanner) unitReq(m cohort.Member, end string, countOnly bool) *ExploreRequest {
	qs := p.template
	qs.Completed = m.Completed
	qs.Start = m.Start
	qs.End = end
	qs.CountOnly = countOnly
	return &ExploreRequest{Query: qs, Goal: p.goal, Budget: p.budget}
}

// horizonBody is the cached body of a multi-deadline counting unit —
// a cohort-internal key space ("goalmh<h>"), never shared with an
// interactive endpoint, so the shape is the unit's own.
type horizonBody struct {
	GoalPaths []int64 `json:"goalPaths"`
}

// sharedUnit threads one shared-substrate counting execution through
// runUnit: the unit is keyed as an interactive countOnly goal request
// (so cache entries flow between cohort jobs and interactive countOnly
// traffic in both directions), priced by admission and bounded by
// unitCtx's timeouts.
func (p *serverPlanner) sharedUnit(ctx context.Context, m cohort.Member, end string, v cohort.Variant, exec cohort.CountExec) (cohort.CountResult, error) {
	_, spaces, err := p.variant(v)
	if err != nil {
		return cohort.CountResult{}, err
	}
	req := p.unitReq(m, end, true)
	ent, how, _, err := p.s.runUnit(ctx, newUnit(p.t, p.gen, spaces.goal, req), func(ctx context.Context) (*resultcache.Entry, bool, error) {
		ctx, cancel := p.s.unitCtx(ctx, req.Budget)
		defer cancel()
		began := time.Now()
		sc, err := exec(ctx)
		if err != nil {
			return nil, false, err
		}
		sum := coursenav.Summary{
			Paths:     sc.Paths,
			GoalPaths: sc.GoalPaths,
			Nodes:     sc.Nodes,
			Elapsed:   time.Since(began),
			DAG:       true,
		}
		rb, err := p.s.renderExploreBody(sum, nil)
		if err != nil {
			return nil, false, err
		}
		defer rb.release()
		ent := newEntry(rb.b, sum.GoalPaths, req.Query.Start+" → "+req.Query.End)
		return ent, len(rb.b) <= maxCacheEntryBytes, nil
	})
	if err != nil {
		return cohort.CountResult{}, err
	}
	return cohort.CountResult{GoalPaths: ent.Paths, Reused: how != "miss"}, nil
}

// sharedHorizonUnit is sharedUnit's multi-deadline counterpart, keyed
// in the variant's "goalmh<h>" space for the job's horizon, the only one
// the runner probes.
func (p *serverPlanner) sharedHorizonUnit(ctx context.Context, m cohort.Member, end string, _ int, v cohort.Variant, exec cohort.HorizonExec) (cohort.HorizonCounts, error) {
	_, spaces, err := p.variant(v)
	if err != nil {
		return cohort.HorizonCounts{}, err
	}
	req := p.unitReq(m, end, true)
	ent, how, _, err := p.s.runUnit(ctx, newUnit(p.t, p.gen, spaces.goalmh, req), func(ctx context.Context) (*resultcache.Entry, bool, error) {
		ctx, cancel := p.s.unitCtx(ctx, req.Budget)
		defer cancel()
		sc, err := exec(ctx)
		if err != nil {
			return nil, false, err
		}
		rb := newRenderBuf()
		defer rb.release()
		rb.b = appendHorizonBody(rb.b, horizonBody{GoalPaths: sc.GoalPaths})
		ent := newEntry(rb.b, sc.GoalPaths[0], req.Query.Start+" → "+req.Query.End)
		return ent, len(ent.Body) <= maxCacheEntryBytes, nil
	})
	if err != nil {
		return cohort.HorizonCounts{}, err
	}
	hb, err := parseHorizonBody(ent.Body)
	if err != nil {
		return cohort.HorizonCounts{}, err
	}
	return cohort.HorizonCounts{GoalPaths: hb.GoalPaths, Reused: how != "miss"}, nil
}

// replan is the SharedPlanner's ReplanUnit: the member's what-if unit
// against the scenario catalog and its goal, with the interactive
// request's budgets and brownout clamps. The rendered entry body is
// byte-identical to the interactive whatif endpoint's response (both are
// appendWhatIf), so for an empty scenario the unit shares the
// interactive "whatif" cache space in both directions.
func (p *serverPlanner) replan(ctx context.Context, m cohort.Member, end string, goal coursenav.Goal) (cohort.Replan, error) {
	nav, spaces, err := p.variant(cohort.Variant{Kind: cohort.KindScenario})
	if err != nil {
		return cohort.Replan{}, err
	}
	req := p.unitReq(m, end, false)
	ent, how, _, err := p.s.runUnit(ctx, newUnit(p.t, p.gen, spaces.whatif, req), func(ctx context.Context) (*resultcache.Entry, bool, error) {
		ctx, cancel := p.s.unitCtx(ctx, req.Budget)
		defer cancel()
		impacts, stopped, err := nav.CompareSelectionsCtx(ctx, p.s.query(req.Query, req.Budget), goal)
		if err != nil {
			return nil, false, err
		}
		rb := newRenderBuf()
		defer rb.release()
		rb.b = appendWhatIf(rb.b, whatIfResponse{Selections: impacts, Stopped: stopped})
		ent := newEntry(rb.b, int64(len(impacts)), req.Query.Start+" → "+req.Query.End)
		return ent, stopped == "" && len(ent.Body) <= maxCacheEntryBytes, nil
	})
	if err != nil {
		return cohort.Replan{}, err
	}
	return cohort.Replan{Body: ent.Body, Reused: how != "miss"}, nil
}
