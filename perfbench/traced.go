package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/cohort"
)

// The traced run (--trace 1) reports the per-layer metrics. Each is
// written down with the end-to-end metric it should move and the
// workload it moves it on:
//
//	server.hit_p50_us, server.overhead_p50_ms,   req_p50_ms            interactive
//	  server.resp_bytes_p50
//	resultcache.hit_ratio, .coalesced_ratio,     req_p50_ms, req_p99_ms interactive, mixed
//	  .evictions                                 (no change)           cold_engine
//	admission.queued, .shed, .avg_run_ms,        req_p99_ms, ok_ratio, mixed
//	  .degraded_share                            fresh_ratio
//	                                             (no change)           cold_engine
//	explore.count_p50_ms, .materialise_p50_ms,   queries_per_s         cold_engine
//	  .topk_p50_ms, .whatif_p50_ms,              req_p99_ms            interactive
//	  .nodes_per_query, .pruned_ratio, .dag_share
//	shared.build_ms, .counts_p50_us,             job_cold_p50_ms,      cohort
//	  .reuse_ratio                               members_per_s
//	cohort.synthesize_ms, .apply_ms, .run_ms,    job_warm_p50_ms       cohort
//	  .http_overhead_ms, .units_per_member,
//	  .coalesced_ratio
//	reload.parse_ms, .integrity_ms, .swap_ms     reload_p50_ms         mixed
//	reload.cold_misses                           req_p99_ms            mixed
//	usage.stats_p50_ms                           req_p99_ms            mixed
//	gen.lag_p99_ms, gen.wait_share               (generator health: a late generator understates latency)
//	trace.overhead_ms, trace.spans               (the traced run's own cost)
//
// On a warm cohort job, synthesize + apply + run + http_overhead splits
// the job's HTTP time; the split attributes the time and changes nothing.

// traceShare is the share of --seconds each of the traced run's two
// passes over the main phase takes.
const traceShare = 0.3

// Replay caps bound the post-run direct calls.
const (
	maxFacadeReplays = 600
	maxCohortReplays = 24
	statsProbes      = 10
)

// counters is the slice of /api/v1/stats the per-layer metrics read.
type counters struct {
	Cache struct {
		Hits, Misses, Coalesced, Evictions int64
	} `json:"cache"`
	Admission struct {
		Queued        int64   `json:"queued"`
		ShedCostly    int64   `json:"shedCostly"`
		ShedQueueFull int64   `json:"shedQueueFull"`
		ShedTimeout   int64   `json:"shedTimeout"`
		AvgRunMs      float64 `json:"avgRunMs"`
	} `json:"admission"`
}

// scrape reads the counters through the stats endpoint in process (no
// connection of the benchmark's budget is used).
func (b *bench) scrape() (counters, error) {
	var c counters
	status, body := inProcess(b.e.srv, statsRequest(0))
	if status != http.StatusOK {
		return c, fmt.Errorf("stats: status %d", status)
	}
	return c, json.Unmarshal(body, &c)
}

// healthPoller samples GET /api/v1/healthz in process every interval
// and counts how often the service reported itself degraded.
type healthPoller struct {
	stop            chan struct{}
	done            chan struct{}
	polls, degraded int
}

func (b *bench) pollHealth(every time.Duration) *healthPoller {
	h := &healthPoller{stop: make(chan struct{}), done: make(chan struct{})}
	req := &request{Method: "GET", Path: "/api/v1/healthz"}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			_, body := inProcess(b.e.srv, req)
			var st struct{ State string }
			if json.Unmarshal(body, &st) == nil {
				h.polls++
				if st.State == "degraded" {
					h.degraded++
				}
			}
		}
	}()
	return h
}

func (h *healthPoller) end() float64 {
	close(h.stop)
	<-h.done
	return ratio(float64(h.degraded), float64(h.polls))
}

// runTraced replays the workload's main phase twice on fresh servers,
// untraced then traced, adds the probe suite traced, and then replays
// each traced request's input directly against the library under the
// same request ID. It reports the per-layer metrics.
func runTraced(cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := b.setup(); err != nil {
		return nil, err
	}
	untraced := b.mainPhase(b.seconds(traceShare))

	b.rec = newRecorder()
	if _, err := b.setup(); err != nil {
		return nil, err
	}
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	health := b.pollHealth(100 * time.Millisecond)
	traced := b.mainPhase(b.seconds(traceShare))
	degradedShare := health.end()
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	probes := b.probePhase(b.newProbes(), 0, 1)
	stats := b.statsProbe()
	runtime.GC()
	rate, rungs, ladder := b.ladderPhase()
	b.e.stop()

	all := append(append(append([]*call(nil), traced...), probes...), stats...)
	if _, err := b.chk.verify(append(append(all, untraced...), ladder...)); err != nil {
		return nil, err
	}
	rp, err := b.replay(all)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: b.chk.wrong == 0}
	for _, c := range all {
		res.Attempted++
		if c.failed() {
			res.Failed++
		}
	}
	b.layerMetrics(res, untraced, traced, all, rp, before, after, degradedShare)
	res.set("serving.sustained_rps", rate, "1/s", "median of %d searches for the highest ladder rate with p99 <= %.0f ms and no growing backlog; rungs %s",
		ladderSearches, ladderLimitMs, fmtRungs(rungs))
	path := tracePath(cfg.workload, cfg.seed)
	if err := b.rec.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans written to %s", path))
	return res, nil
}

// statsProbe polls GET /api/v1/stats over HTTP, after the traffic, when
// the usage ring is full.
func (b *bench) statsProbe() []*call {
	dr := &driver{cl: newClient(1), base: b.e.base, rec: b.rec}
	defer dr.cl.CloseIdleConnections()
	var out []*call
	for i := 0; i < statsProbes; i++ {
		now := time.Now()
		c := &call{r: statsRequest(b.nextID()), due: now, enq: now}
		dr.issue(c)
		out = append(out, c)
	}
	return out
}

// replayed holds the direct library calls made on traced requests'
// inputs, keyed by request ID.
type replayed struct {
	facade map[int]facadeReplay
	cohort map[int]cohortRun
	reload map[int][2]time.Duration // parse, integrity
	shared cohort.SharedPlannerStats
}

type facadeReplay struct {
	dur time.Duration
	run engineRun
}

// replay makes, after the traffic, the direct public-function calls
// behind each traced request: the façade call of an explore request the
// server computed (a miss or a stream), the synthesis, scenario apply
// and Runner.Run of a cohort job, and the parse and integrity check of
// a reload. Each call's span carries the request's ID.
func (b *bench) replay(calls []*call) (*replayed, error) {
	rp := &replayed{facade: map[int]facadeReplay{}, cohort: map[int]cohortRun{}, reload: map[int][2]time.Duration{}}
	ctx := context.Background()
	var prev *cohortRun
	var prevJob *cohortJob
	for _, c := range calls {
		if c.failed() {
			continue
		}
		r := c.r
		switch {
		case r.isExplore() && (c.o.xcache == "miss" || r.Kind == kStream):
			if len(rp.facade) >= maxFacadeReplays {
				continue
			}
			var run engineRun
			var err error
			d := b.rec.wrap(r.ID, 0, "facade."+r.Kind, func() {
				run, err = runFacade(ctx, b.w.nav(r.Tenant), r.Kind, r.Explore)
			})
			if err != nil {
				return nil, err
			}
			rp.facade[r.ID] = facadeReplay{dur: d, run: run}
		case r.Kind == kCohort:
			if len(rp.cohort) >= maxCohortReplays {
				continue
			}
			var planner *cohort.SharedPlanner
			if r.Warm && prev != nil && prevJob == r.Job {
				planner = prev.planner
			}
			run, err := runCohortDirect(ctx, b.w.brandeis, r.Job, planner, b.rec, r.ID)
			if err != nil {
				return nil, err
			}
			if !r.Warm {
				st := run.planner.Stats()
				rp.shared.DPReused += st.DPReused
				rp.shared.Statuses += st.Statuses
			}
			rp.cohort[r.ID] = run
			prev, prevJob = &run, r.Job
		case r.Kind == kReload:
			var nav *coursenav.Navigator
			var err error
			parse := b.rec.wrap(r.ID, 0, "reload.parse", func() { nav, err = b.d.load() })
			if err != nil {
				return nil, err
			}
			integ := b.rec.wrap(r.ID, 0, "reload.integrity", func() { nav.Integrity() })
			rp.reload[r.ID] = [2]time.Duration{parse, integ}
		}
	}
	return rp, nil
}

// layerMetrics fills every per-layer metric; a layer the workload does
// not exercise reads 0.
func (b *bench) layerMetrics(res *result, untraced, traced, all []*call, rp *replayed, before, after counters, degradedShare float64) {
	httpMs := func(c *call) float64 { return ms(c.o.done.Sub(c.o.sent)) }
	isReq := func(c *call) bool { return c.r.Kind != kCohort && c.r.Kind != kReload && c.r.Kind != kStats }

	// server: replayed hits, the HTTP cost around a computed answer, and
	// response sizes.
	var hits, overhead, size sample
	for _, c := range all {
		if c.failed() || !isReq(c) {
			continue
		}
		size = append(size, float64(c.o.bytes))
		if c.o.xcache == "hit" {
			hits = append(hits, httpMs(c)*1000)
		}
		if f, ok := rp.facade[c.r.ID]; ok && c.r.Kind != kStream {
			overhead = append(overhead, httpMs(c)-ms(f.dur))
		}
	}
	res.set("server.hit_p50_us", hits.median(), "us", "n=%d cache-hit exchanges", len(hits))
	res.set("server.overhead_p50_ms", overhead.median(), "ms", "n=%d computed answers: HTTP time minus the direct façade call", len(overhead))
	res.set("server.resp_bytes_p50", size.median(), "bytes", "n=%d", len(size))

	// resultcache: counter deltas over the traced main phase.
	dh := float64(after.Cache.Hits - before.Cache.Hits)
	dm := float64(after.Cache.Misses - before.Cache.Misses)
	dc := float64(after.Cache.Coalesced - before.Cache.Coalesced)
	res.set("resultcache.hit_ratio", ratio(dh, dh+dm+dc), "ratio", "%.0f hits, %.0f misses, %.0f coalesced", dh, dm, dc)
	res.set("resultcache.coalesced_ratio", ratio(dc, dh+dm+dc), "ratio", "")
	res.set("resultcache.evictions", float64(after.Cache.Evictions-before.Cache.Evictions), "count", "")

	// admission.
	shed := (after.Admission.ShedCostly + after.Admission.ShedQueueFull + after.Admission.ShedTimeout) -
		(before.Admission.ShedCostly + before.Admission.ShedQueueFull + before.Admission.ShedTimeout)
	res.set("admission.queued", float64(after.Admission.Queued-before.Admission.Queued), "count", "")
	res.set("admission.shed", float64(shed), "count", "")
	res.set("admission.avg_run_ms", after.Admission.AvgRunMs, "ms", "the controller's run-time average at the end of the phase")
	res.set("admission.degraded_share", degradedShare, "ratio", "share of /healthz polls reporting degraded")

	// explore: the direct façade calls.
	byKind := map[string]sample{}
	var nodes, pruned, dag, withSum float64
	for _, f := range rp.facade {
		k := f.run.kind
		byKind[k] = append(byKind[k], ms(f.dur))
		if f.run.hasSum {
			withSum++
			nodes += float64(f.run.sum.Nodes)
			pruned += float64(f.run.sum.PrunedTime + f.run.sum.PrunedAvail)
			if f.run.sum.DAG {
				dag++
			}
		}
	}
	counts := append(byKind[kCount], byKind[kDeadline]...)
	mat := append(byKind[kGoal], byKind[kStream]...)
	res.set("explore.count_p50_ms", counts.median(), "ms", "n=%d", len(counts))
	res.set("explore.materialise_p50_ms", mat.median(), "ms", "n=%d", len(mat))
	res.set("explore.topk_p50_ms", byKind[kRanked].median(), "ms", "n=%d", len(byKind[kRanked]))
	res.set("explore.whatif_p50_ms", byKind[kWhatIf].median(), "ms", "n=%d", len(byKind[kWhatIf]))
	res.set("explore.nodes_per_query", ratio(nodes, withSum), "count", "n=%.0f", withSum)
	res.set("explore.pruned_ratio", ratio(pruned, nodes+pruned), "ratio", "")
	res.set("explore.dag_share", ratio(dag, withSum), "ratio", "")

	// shared and cohort: the direct job replays against the HTTP jobs.
	var build, execs, syn, apply, run, httpOver sample
	var units, members, coalesced float64
	for _, c := range all {
		if c.r.Kind != kCohort || c.failed() {
			continue
		}
		units += float64(c.sum.Units)
		members += float64(c.sum.Members)
		coalesced += float64(c.sum.Coalesced)
		d, ok := rp.cohort[c.r.ID]
		if !ok {
			continue
		}
		if !c.r.Warm {
			build = append(build, ms(d.run))
			execs = append(execs, d.counts...)
			continue
		}
		syn = append(syn, ms(d.synthesize))
		apply = append(apply, ms(d.apply))
		run = append(run, ms(d.run))
		httpOver = append(httpOver, httpMs(c)-ms(d.synthesize+d.apply+d.run))
	}
	res.set("shared.build_ms", build.median(), "ms", "n=%d cold replays: Runner.Run over a fresh SharedPlanner", len(build))
	res.set("shared.counts_p50_us", execs.median(), "us", "n=%d substrate executions", len(execs))
	res.set("shared.reuse_ratio", ratio(float64(rp.shared.DPReused), float64(rp.shared.DPReused+rp.shared.Statuses)), "ratio",
		"statuses reused across members over statuses visited")
	res.set("cohort.synthesize_ms", syn.median(), "ms", "n=%d warm replays", len(syn))
	res.set("cohort.apply_ms", apply.median(), "ms", "")
	res.set("cohort.run_ms", run.median(), "ms", "Runner.Run over the job's built SharedPlanner, no HTTP")
	res.set("cohort.http_overhead_ms", httpOver.median(), "ms", "warm job HTTP time minus synthesis, apply and run: HTTP, units and cache replay")
	res.set("cohort.units_per_member", ratio(units, members), "count", "")
	res.set("cohort.coalesced_ratio", ratio(coalesced, units), "ratio", "")

	// reload.
	var parse, integ, swap, stats sample
	coldMisses, reloads := 0.0, 0.0
	var reloadCalls []*call
	for _, c := range all {
		if c.failed() {
			continue
		}
		switch c.r.Kind {
		case kReload:
			if d, ok := rp.reload[c.r.ID]; ok {
				parse = append(parse, ms(d[0]))
				integ = append(integ, ms(d[1]))
				swap = append(swap, httpMs(c)-ms(d[0]+d[1]))
			}
			reloadCalls = append(reloadCalls, c)
		case kStats:
			stats = append(stats, httpMs(c))
		}
	}
	// Cold misses after a reload: computed answers released between a
	// reload's completion and the next reload.
	for i, rc := range reloadCalls {
		var next time.Time
		if i+1 < len(reloadCalls) {
			next = reloadCalls[i+1].o.sent
		}
		for _, c := range traced {
			if isReq(c) && c.o.xcache == "miss" && c.enq.After(rc.o.done) && (next.IsZero() || c.enq.Before(next)) {
				coldMisses++
			}
		}
		reloads++
	}
	res.set("reload.parse_ms", parse.median(), "ms", "n=%d NewFromRegistrarDump", len(parse))
	res.set("reload.integrity_ms", integ.median(), "ms", "")
	res.set("reload.swap_ms", swap.median(), "ms", "reload HTTP time minus parse and integrity")
	res.set("reload.cold_misses", ratio(coldMisses, reloads), "count", "computed answers per reload until the next one")
	res.set("usage.stats_p50_ms", stats.median(), "ms", "n=%d GET /api/v1/stats", len(stats))

	// generator and tracing.
	var lag sample
	for _, c := range traced {
		lag = append(lag, ms(c.enq.Sub(c.due)))
	}
	p := 99.0
	if !validAt(len(lag), p) {
		p, _, _ = lag.tail()
	}
	res.set("gen.lag_p99_ms", lag.pct(p), "ms", "p%g of release minus due, n=%d", p, len(lag))
	spans := b.rec.all()
	self := selfByName(spans)
	var reqTotal float64
	for _, s := range spans {
		if s.Parent == 0 && len(s.Name) > 4 && s.Name[:4] == "req." {
			reqTotal += ms(s.dur())
		}
	}
	res.set("gen.wait_share", ratio(self["gen.wait"], reqTotal), "ratio", "self time waiting for the generator or a connection over request time")
	var reqLat sample
	for _, c := range traced {
		if !c.failed() && isWorkloadReq(c, b.cfg.workload) {
			reqLat = append(reqLat, c.latency())
		}
	}
	_, _, tail := windowTail(reqLat)
	res.set("req.p99_ms", tail, "ms", "%s", tailNote(reqLat))
	res.set("trace.overhead_ms", primary(traced, b.cfg.workload)-primary(untraced, b.cfg.workload), "ms",
		"traced minus untraced p50 of the same request sequence")
	res.set("trace.spans", float64(len(spans)), "count", "")
}

// primary is the p50 latency of the workload's requests.
func primary(calls []*call, workload string) float64 {
	var s sample
	for _, c := range calls {
		if !c.failed() && isWorkloadReq(c, workload) {
			s = append(s, c.latency())
		}
	}
	return s.median()
}
