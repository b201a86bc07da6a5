package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/cohort"
	"repro/internal/server"
	"repro/internal/term"
)

// facadeQuery is the façade query the server derives from a canonical
// explore request (server.Server.query with the default node budget).
func facadeQuery(ex *server.ExploreRequest) coursenav.Query {
	return coursenav.Query{
		Completed:  ex.Query.Completed,
		Start:      ex.Query.Start,
		End:        ex.Query.End,
		MaxPerTerm: ex.Query.MaxPerTerm,
		MaxNodes:   server.DefaultNodeBudget,
	}
}

// engineRun is one direct façade call's outcome.
type engineRun struct {
	kind   string
	sum    coursenav.Summary
	hasSum bool
	counts string // count kinds: the tallies the answer must carry
}

// runFacade makes the façade call behind an explore request of the given
// kind, the work the server's engine does on a miss.
func runFacade(ctx context.Context, nav *coursenav.Navigator, kind string, ex *server.ExploreRequest) (engineRun, error) {
	q := facadeQuery(ex)
	var goal coursenav.Goal
	if ex.Goal != nil {
		g, err := nav.GoalCourses(ex.Goal.Courses...)
		if err != nil {
			return engineRun{}, err
		}
		goal = g
	}
	run := engineRun{kind: kind}
	var err error
	switch kind {
	case kCount:
		run.sum, err = nav.GoalPathsCountCtx(ctx, q, goal)
		run.counts = countDigest(run.sum.Paths, run.sum.GoalPaths, run.sum.Stopped)
	case kDeadline:
		run.sum, err = nav.DeadlineCountCtx(ctx, q)
		run.counts = countDigest(run.sum.Paths, run.sum.GoalPaths, run.sum.Stopped)
	case kGoal, kStream:
		_, run.sum, err = nav.GoalPathsCtx(ctx, q, goal)
	case kRanked:
		_, run.sum, err = nav.TopKCtx(ctx, q, goal, ex.Ranking, ex.K)
	case kWhatIf:
		_, _, err = nav.CompareSelectionsCtx(ctx, q, goal)
		return run, err
	default:
		return run, fmt.Errorf("no façade call for kind %q", kind)
	}
	run.hasSum = true
	return run, err
}

func countDigest(paths, goalPaths int64, stopped string) string {
	return fmt.Sprintf("paths=%d goal=%d stopped=%s", paths, goalPaths, stopped)
}

// cohortRun is one direct replay of a cohort job: the server's job
// pipeline (synthesis, scenario application, Runner.Run on a
// SharedPlanner) without HTTP, the result cache or admission.
type cohortRun struct {
	synthesize, apply, run time.Duration
	digest                 string
	members                int
	planner                *cohort.SharedPlanner
	counts                 sample // per substrate execution, µs
}

// runCohortDirect replays job against nav. A non-nil planner from the
// previous replay of the same job is reused, so a warm replay measures
// the runner over an already-built substrate, as a warm HTTP job runs
// over an already-filled cache. Spans go to rec under id.
func runCohortDirect(ctx context.Context, nav *coursenav.Navigator, job *cohortJob, planner *cohort.SharedPlanner, rec *recorder, id int) (cohortRun, error) {
	var out cohortRun
	var err error
	cat := nav.Catalog()
	root := time.Now()
	goalOf := func(nv *coursenav.Navigator) (coursenav.Goal, error) { return nv.GoalExpr(job.Goal.Expr) }
	goal, err := goalOf(nav)
	if err != nil {
		return out, err
	}
	var members []cohort.Member
	out.synthesize = rec.wrap(id, 0, "cohort.synthesize", func() {
		var start, end term.Term
		if start, err = term.Parse(cat.Calendar(), job.Query.Start); err != nil {
			return
		}
		if end, err = term.Parse(cat.Calendar(), job.Query.End); err != nil {
			return
		}
		members, err = cohort.Synthesize(cat, goal.Inner(), start, end, job.Query.MaxPerTerm,
			job.Synthesize.N, rand.New(rand.NewSource(job.Synthesize.Seed)))
	})
	if err != nil {
		return out, err
	}
	scenNav := nav
	sc := job.Scenario
	out.apply = rec.wrap(id, 0, "cohort.apply", func() {
		scenCat, aerr := sc.Apply(cat)
		if err = aerr; err == nil && scenCat != cat {
			scenNav = coursenav.NewFromCatalog(scenCat)
		}
	})
	if err != nil {
		return out, err
	}
	var mu sync.Mutex
	timeExec := func(d time.Duration) {
		mu.Lock()
		out.counts = append(out.counts, float64(d)/float64(time.Microsecond))
		mu.Unlock()
	}
	if planner == nil {
		planner = &cohort.SharedPlanner{
			Base:     nav,
			Scenario: scenNav,
			MakeGoal: goalOf,
			Query: coursenav.Query{Start: job.Query.Start, End: job.Query.End,
				MaxPerTerm: job.Query.MaxPerTerm, MaxNodes: server.DefaultNodeBudget},
		}
	}
	planner.Unit = func(ctx context.Context, _ cohort.Member, _ string, _ cohort.Variant, exec cohort.CountExec) (cohort.CountResult, error) {
		t0 := time.Now()
		sc, err := exec(ctx)
		timeExec(time.Since(t0))
		return cohort.CountResult{GoalPaths: sc.GoalPaths}, err
	}
	planner.HorizonUnit = func(ctx context.Context, _ cohort.Member, _ string, _ int, _ cohort.Variant, exec cohort.HorizonExec) (cohort.HorizonCounts, error) {
		t0 := time.Now()
		sc, err := exec(ctx)
		timeExec(time.Since(t0))
		return cohort.HorizonCounts{GoalPaths: sc.GoalPaths}, err
	}
	runner := cohort.Runner{Planner: planner, Opts: cohort.Options{
		End: job.Query.End, Horizon: job.Horizon, Baseline: job.Baseline,
		Calendar: cat.Calendar(), Workers: job.Workers,
	}}
	h := sha256.New()
	var sum cohort.Summary
	out.run = rec.wrap(id, 0, "cohort.run", func() {
		sum, err = runner.Run(ctx, members, func(m cohort.MemberRecord) error {
			b, merr := json.Marshal(m)
			h.Write(b)
			return merr
		})
	})
	if err != nil {
		return out, err
	}
	rec.add(id, 0, "cohort.direct", root, time.Now())
	out.digest = cohortDigest(h.Sum(nil), sum)
	out.members = sum.Members
	out.planner = planner
	return out, nil
}

// cohortDigest folds the member records' hash and the summary, less the
// cache-dependent coalesced tally, into one comparable string.
func cohortDigest(members []byte, sum cohort.Summary) string {
	sum.Coalesced = 0
	b, _ := json.Marshal(sum) // plain numbers and slices: cannot fail
	return hex.EncodeToString(members) + " " + string(b)
}

// cohortAnswer parses a POST /cohort NDJSON answer into its digest and
// summary.
func cohortAnswer(body []byte) (string, cohort.Summary, error) {
	h := sha256.New()
	var sum cohort.Summary
	seen := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte{'\n'}) {
		var rec struct {
			Member  *cohort.MemberRecord `json:"member"`
			Summary *cohort.Summary      `json:"summary"`
			Error   json.RawMessage      `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return "", sum, err
		}
		switch {
		case rec.Member != nil:
			b, err := json.Marshal(rec.Member)
			if err != nil {
				return "", sum, err
			}
			h.Write(b)
		case rec.Summary != nil:
			sum, seen = *rec.Summary, true
		case rec.Error != nil:
			return "", sum, fmt.Errorf("job failed: %s", rec.Error)
		}
	}
	if !seen {
		return "", sum, fmt.Errorf("no summary record")
	}
	return cohortDigest(h.Sum(nil), sum), sum, nil
}
