package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed traffic shapes. The interactive open loop runs well below the
// rate at which the full mix, cold tail included, starts to queue on the
// 2-CPU machine the benchmark was sized on (the p99 of that mix stayed
// flat up to 2,800 requests/s there): low enough that latency reads
// service time rather than how busy the machine's neighbours were. Mixed
// runs it on one connection, beside a batch client on the other.
const (
	interactiveRate = 500.0 // requests/s, open loop over maxConns connections
	mixedRate       = 150.0 // requests/s, open loop over one connection
	mainShare       = 0.75  // share of --seconds the main phase runs
	reloadEvery     = 100   // mixed: a reload per this many interactive requests
	statsEvery      = 250 * time.Millisecond
	setupRepeats    = 9
	hotPositions    = 12  // warm-up: every kind for the most popular positions
	probeJobs       = 160 // probe suite: cohort jobs (half cold, half warm)
	probeReloads    = 100 // probe suite: reloads
	// jobsMainShare is the main phase's share where the probe suite runs
	// cohort jobs, which take about a third of the run.
	jobsMainShare = 0.6
	// probeRounds is how many slices a measured run splits its main phase
	// and its probe suite into, alternating them, so the probe figures
	// sample the whole run rather than a burst at its end: one stretch of
	// a noisy neighbour then moves a few of the samples, not their median.
	probeRounds = 20
	// probeSeed fixes the probe suite's jobs: every seed and workload
	// probes with the same jobs, so the probe figures differ between runs
	// only by how the server ran them.
	probeSeed = 7
)

// bench is one run's state.
type bench struct {
	cfg  config
	w    *world
	d    dump
	pool *pool
	e    *env
	chk  *checker
	rec  *recorder // nil when untraced
	id   int       // next request ID outside pre-generated sequences
}

func newBench(cfg config) (*bench, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	d := registrarDump(w.brandeis, w.first.Label(), w.last.Label())
	if err := sameCatalog(w, d); err != nil {
		return nil, err
	}
	p, err := newPool(w)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(w, d)
	if err != nil {
		return nil, err
	}
	return &bench{cfg: cfg, w: w, d: d, pool: p, chk: chk, id: 1 << 20}, nil
}

// sameCatalog checks the registrar dump parses back to the embedded
// catalog, so a reload swaps in an identical catalog.
func sameCatalog(w *world, d dump) error {
	nav, err := d.load()
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := w.brandeis.WriteCatalogJSON(&a); err != nil {
		return err
	}
	if err := nav.WriteCatalogJSON(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("registrar dump does not round-trip the Brandeis catalog")
	}
	return nil
}

func (b *bench) nextID() int {
	b.id++
	return b.id
}

func (b *bench) seconds(share float64) time.Duration {
	return time.Duration(b.cfg.seconds * share * float64(time.Second))
}

// setup starts a fresh server and warms it: the most popular
// interactive keys are cached and a few engine requests have run on each
// generated catalog. It returns how long that took.
func (b *bench) setup() (time.Duration, error) {
	if b.e != nil {
		b.e.stop()
		b.e = nil
	}
	t0 := time.Now()
	e, err := startEnv(b.w, b.d, b.cfg.workload == "cold_engine", b.cfg.workload != "mixed")
	if err != nil {
		return 0, err
	}
	b.e = e
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	warm := b.pool.hotKeys(hotPositions)
	if b.cfg.workload == "cold_engine" {
		g := newColdGen(b.w, -b.cfg.seed-1)
		for i := 0; i < 8; i++ {
			warm = append(warm, g.request())
		}
	}
	for _, r := range warm {
		o := do(cl, e.base, r)
		if o.err != nil || o.status != http.StatusOK {
			return 0, fmt.Errorf("warm-up %s %s: status %d %v: %.200s", r.Method, r.Path, o.status, o.err, o.body)
		}
	}
	return time.Since(t0), nil
}

// phases holds a run's calls by role.
type phases struct {
	main, probe []*call
	mainDur     time.Duration
}

func (ph *phases) all() []*call {
	return append(append([]*call(nil), ph.main...), ph.probe...)
}

// traffic is the workload's own seeded request stream, which a measured
// run issues in segments between probe rounds.
type traffic struct {
	b    *bench
	open []*request      // interactive, mixed: the open-loop schedule
	next int             // the first request of open not yet released
	gen  func() *request // cold_engine, cohort: the closed loop's source; mixed: the batch client's jobs
	// mixed: interactive requests released and reloads sent so far, the
	// last /stats poll and the batch client's next request ID.
	released  atomic.Int64
	reloads   int64
	lastStats time.Time
	batchID   int
}

// newTraffic starts the workload's stream for a main phase of dur.
func (b *bench) newTraffic(dur time.Duration) *traffic {
	t := &traffic{b: b, lastStats: time.Now(), batchID: 1 << 24}
	switch b.cfg.workload {
	case "interactive":
		n := int(interactiveRate*dur.Seconds()*1.2) + 10
		t.open = b.pool.openSeq(b.cfg.seed, 0, n, interactiveRate, 0)
	case "cold_engine":
		t.gen = newColdGen(b.w, b.cfg.seed).request
	case "cohort":
		t.gen = newCohortGen(b.w, b.cfg.seed).request
	case "mixed":
		n := int(mixedRate*dur.Seconds()*1.2) + 10
		t.open = b.pool.openSeq(b.cfg.seed, 0, n, mixedRate, 0)
		t.gen = newCohortGen(b.w, b.cfg.seed).request
	}
	return t
}

// run issues the stream's next dur.
func (t *traffic) run(dur time.Duration) []*call {
	b := t.b
	if b.cfg.workload == "mixed" {
		return t.mixed(dur)
	}
	dr := &driver{cl: newClient(maxConns), base: b.e.base, rec: b.rec}
	defer dr.cl.CloseIdleConnections()
	if t.gen != nil {
		return dr.closedLoop(t.gen, time.Now().Add(dur))
	}
	return t.openSegment(dr, maxConns, after(dur))
}

// openSegment releases the open-loop schedule until stop, starting with
// its next request due at once and keeping the schedule's gaps after it.
func (t *traffic) openSegment(dr *driver, conns int, stop <-chan struct{}) []*call {
	rest := t.open[t.next:]
	if len(rest) == 0 {
		<-stop
		return nil
	}
	calls := dr.openLoop(rest, conns, time.Now().Add(-rest[0].Due), stop)
	t.next += len(calls)
	return calls
}

// mainPhase runs the workload's own traffic for dur in one piece.
func (b *bench) mainPhase(dur time.Duration) []*call {
	return b.newTraffic(dur).run(dur)
}

// mixed runs the interactive open loop on one connection and a batch
// client on the other: cohort jobs back to back, a default-tenant reload
// every reloadEvery interactive requests, and a /stats poll every
// statsEvery.
func (t *traffic) mixed(dur time.Duration) []*call {
	b := t.b
	fg := &driver{cl: newClient(1), base: b.e.base, rec: b.rec, released: &t.released}
	bg := &driver{cl: newClient(1), base: b.e.base, rec: b.rec}
	defer fg.cl.CloseIdleConnections()
	defer bg.cl.CloseIdleConnections()
	stop := after(dur)
	var batch []*call
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var r *request
			switch {
			case t.released.Load()/reloadEvery > t.reloads:
				t.reloads++
				r = reloadRequest(t.batchID, "")
			case time.Since(t.lastStats) >= statsEvery:
				t.lastStats = time.Now()
				r = statsRequest(t.batchID)
			default:
				r = t.gen()
				r.ID = t.batchID
			}
			t.batchID++
			now := time.Now()
			c := &call{r: r, due: now, enq: now}
			bg.issue(c)
			batch = append(batch, c)
		}
	}()
	calls := t.openSegment(fg, 1, stop)
	wg.Wait()
	return append(calls, batch...)
}

func after(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// ladderPhase measures the sustained rate over the server the workload
// has just run on. Its requests are not traced.
func (b *bench) ladderPhase() (float64, []rungResult, []*call) {
	dr := &driver{cl: newClient(maxConns), base: b.e.base}
	defer dr.cl.CloseIdleConnections()
	return dr.ladder(b.pool, 3*ladderSteps, 1<<26) // from 8000 requests/s
}

// probeSuite is the fixed list of operations that supply, on the same
// server, the end-to-end metrics the workload's own traffic does not
// produce: cohort jobs (a fresh scenario, then its repeat) and reloads,
// all on the probe tenant, so they leave the workload's own cache alone.
// A round's reloads drop what its jobs cached.
type probeSuite struct {
	jobs, reloads []*request
}

func (b *bench) newProbes() *probeSuite {
	p := &probeSuite{}
	wl := b.cfg.workload
	if wl == "interactive" || wl == "cold_engine" {
		g := newCohortGen(b.w, probeSeed)
		for i := 0; i < probeJobs; i++ {
			r := g.request()
			r.ID, r.Tenant, r.Path = b.nextID(), probeTenant, tenantPrefix(probeTenant)+"/cohort"
			p.jobs = append(p.jobs, r)
		}
	}
	if wl != "mixed" {
		for i := 0; i < probeReloads; i++ {
			p.reloads = append(p.reloads, reloadRequest(b.nextID(), probeTenant))
		}
	}
	return p
}

// slice returns round i of n of rs.
func slice(rs []*request, i, n int) []*request {
	return rs[i*len(rs)/n : (i+1)*len(rs)/n]
}

// probePhase issues round i of n of the probe suite.
func (b *bench) probePhase(p *probeSuite, i, n int) []*call {
	dr := &driver{cl: newClient(1), base: b.e.base, rec: b.rec}
	defer dr.cl.CloseIdleConnections()
	var calls []*call
	// Each probe operation starts on a freshly collected heap, so garbage
	// left by earlier work does not decide when its collections land.
	round := append(append([]*request(nil), slice(p.jobs, i, n)...), slice(p.reloads, i, n)...)
	for _, r := range round {
		runtime.GC()
		now := time.Now()
		c := &call{r: r, due: now, enq: now}
		dr.issue(c)
		calls = append(calls, c)
	}
	return calls
}

// liveHeapMB collects garbage and returns the live heap in MB: the memory
// the process holds, not the garbage between collections.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runMeasured is the untraced run: every end-to-end metric.
func runMeasured(cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	var setups sample
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer b.e.stop()
	// The main phase and the probe suite alternate in rounds. Each round's
	// main segment ends with every request answered, where the live heap
	// is what the server retains: caches, catalogs, reload leftovers.
	probes := b.newProbes()
	main := b.seconds(mainShare)
	if len(probes.jobs) > 0 {
		main = b.seconds(jobsMainShare)
	}
	tr := b.newTraffic(main)
	var ph phases
	var heapMB sample
	for i := 0; i < probeRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		ph.main = append(ph.main, tr.run(main/probeRounds)...)
		ph.mainDur += time.Since(t0)
		heapMB = append(heapMB, liveHeapMB())
		ph.probe = append(ph.probe, b.probePhase(probes, i, probeRounds)...)
	}
	res := &result{}
	if err := b.score(res, &ph); err != nil {
		return nil, err
	}
	res.set("setup_s", setups.median(), "s", "median of %d set-ups %v", len(setups), setups)
	res.set("heap_peak_mb", heapMB.pct(100), "MB", "largest live heap after a collection at the end of the %d main-phase segments, every request answered; server and client in one process", probeRounds)
	return res, nil
}

// score checks every call and fills the end-to-end metrics.
func (b *bench) score(res *result, ph *phases) error {
	all := ph.all()
	if _, err := b.chk.verify(all); err != nil {
		return err
	}
	var reqLat, streamFirst, jobCold, jobWarm, memberRate, reloads sample
	failed, degraded, queries := 0, 0, 0
	var units int64
	for _, c := range all {
		if c.failed() {
			failed++
		}
		if c.degraded {
			degraded++
		}
	}
	// Latency metrics come from the main phase where the workload has that
	// traffic, else from the probe suite.
	pick := func(kind func(*call) bool) []*call {
		var out []*call
		for _, c := range ph.main {
			if kind(c) {
				out = append(out, c)
			}
		}
		if len(out) == 0 {
			for _, c := range ph.probe {
				if kind(c) {
					out = append(out, c)
				}
			}
		}
		return out
	}
	isReq := func(c *call) bool { return isWorkloadReq(c, b.cfg.workload) }
	for _, c := range pick(isReq) {
		if c.failed() {
			continue
		}
		reqLat = append(reqLat, c.latency())
		if c.r.Kind == kStream || c.r.Kind == kCohort {
			streamFirst = append(streamFirst, ms(c.o.first.Sub(c.enq)))
		}
	}
	for _, c := range ph.main {
		if c.failed() {
			continue
		}
		if c.r.Kind == kCohort {
			units += c.sum.Units
		} else if isReq(c) {
			queries++
		}
	}
	for _, c := range pick(func(c *call) bool { return c.r.Kind == kCohort }) {
		if c.failed() {
			continue
		}
		if c.r.Warm {
			jobWarm = append(jobWarm, c.latency())
		} else {
			jobCold = append(jobCold, c.latency())
		}
		memberRate = append(memberRate, float64(c.sum.Members)/(c.latency()/1000))
	}
	for _, c := range pick(func(c *call) bool { return c.r.Kind == kReload }) {
		if !c.failed() {
			reloads = append(reloads, c.latency())
		}
	}
	var lag sample
	for _, c := range ph.main {
		lag = append(lag, ms(c.enq.Sub(c.due)))
	}
	res.notes = append(res.notes, fmt.Sprintf("generator lateness (release minus due) p50=%.3fms p99=%.3fms n=%d", lag.median(), lag.pct(99), len(lag)))
	for _, p := range []struct {
		name  string
		calls []*call
	}{{"main", ph.main}, {"probe", ph.probe}} {
		byKind := map[string]sample{}
		for _, c := range p.calls {
			if !c.failed() {
				byKind[c.r.Kind] = append(byKind[c.r.Kind], c.latency())
			}
		}
		for k, v := range byKind {
			res.notes = append(res.notes, fmt.Sprintf("%s phase %-9s n=%-6d p10=%.3fms p50=%.3fms p90=%.3fms max=%.3fms", p.name, k, len(v), v.pct(10), v.median(), v.pct(90), v.pct(100)))
		}
	}
	res.Attempted, res.Failed = len(all), failed
	res.Correct = b.chk.wrong == 0
	if b.chk.first != "" {
		res.notes = append(res.notes, "WRONG ANSWER: "+b.chk.first)
	}
	res.notes = append(res.notes, fmt.Sprintf("checked %d answers against references, %d wrong; %d failed, %d degraded of %d attempted",
		b.chk.checked, b.chk.wrong, failed, degraded, len(all)))
	n := float64(len(all))
	res.set("ok_ratio", 1-float64(failed)/n, "ratio", "1 - fail_ratio; fail_ratio = %.6f (failed, refused or wrong over attempted)", float64(failed)/n)
	res.set("fresh_ratio", 1-float64(degraded)/n, "ratio", "1 - degraded_ratio; degraded_ratio = %.6f (stale or degraded answers)", float64(degraded)/n)
	res.set("req_p50_ms", reqLat.median(), "ms", "n=%d, timed from release", len(reqLat))
	res.notes = append(res.notes, "req_p99_ms "+tailNote(reqLat)+" (reported by the traced run as req.p99_ms)")
	res.set("stream_first_p50_ms", streamFirst.median(), "ms", "n=%d, release to first NDJSON record", len(streamFirst))
	qps := float64(queries) + float64(units)
	res.set("queries_per_s", qps/ph.mainDur.Seconds(), "1/s", "%d requests + %d cohort units in %.2fs", queries, units, ph.mainDur.Seconds())
	res.set("job_cold_p50_ms", jobCold.median(), "ms", "n=%d fresh-scenario jobs", len(jobCold))
	res.set("job_warm_p50_ms", jobWarm.median(), "ms", "n=%d repeated jobs (every unit a cache hit)", len(jobWarm))
	res.set("members_per_s", memberRate.median(), "1/s", "median over n=%d jobs of members / job time", len(memberRate))
	res.set("reload_p50_ms", reloads.median(), "ms", "n=%d reloads", len(reloads))
	return nil
}

// maxTailWindows bounds how many consecutive windows the request tail is
// taken over; the median of their tails keeps one stall from setting the
// run's figure.
const maxTailWindows = 4

// windowTail splits lat (in issue order) into as many consecutive windows
// (up to maxTailWindows) as still give each window's p99 ten samples
// beyond it, and returns the window count, the percentile used (p99, or
// with too few samples for one window the highest percentile that has
// ten beyond) and the median of the windows' values.
func windowTail(lat sample) (int, float64, float64) {
	w := maxTailWindows
	for w > 1 && !validAt(len(lat)/w, 99) {
		w--
	}
	n := len(lat) / w
	p := 99.0
	if !validAt(n, p) {
		p, _, _ = lat.tail()
	}
	var tails sample
	for i := 0; i < w; i++ {
		tails = append(tails, lat[i*n:(i+1)*n].pct(p))
	}
	return w, p, tails.median()
}

// isWorkloadReq reports whether c is one of the workload's requests: its
// explore, options and audit calls, or, for the cohort workload, its
// jobs (whose answers stream too).
func isWorkloadReq(c *call, workload string) bool {
	if workload == "cohort" {
		return c.r.Kind == kCohort
	}
	return c.r.Kind != kCohort && c.r.Kind != kReload && c.r.Kind != kStats
}

// tailNote describes windowTail's figure for lat.
func tailNote(lat sample) string {
	windows, p, tail := windowTail(lat)
	return fmt.Sprintf("%.4f ms: median of %d consecutive windows' p%g, n=%d (%d beyond per window), timed from release",
		tail, windows, p, len(lat), beyond(len(lat)/windows, p))
}

func fmtRungs(rs []rungResult) string {
	var bb bytes.Buffer
	for _, r := range rs {
		mark := "ok"
		if !r.ok {
			mark = "x"
		}
		fmt.Fprintf(&bb, "%.0f:%.1fms:%s ", r.rate, r.p99, mark)
	}
	return bb.String()
}
