package main

import (
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cohort"
)

// call is one issued request and what came back.
type call struct {
	r *request
	// due is when the request was scheduled to go out (open loop), or
	// when it went out (closed loop); enq is when the generator released
	// it to the connections.
	due, enq time.Time
	o        outcome
	digest   string // the answer's digest, when the checker samples it
	wrong    bool
	degraded bool           // answered stale or under brownout
	sum      cohort.Summary // a cohort job's trailing summary
}

// latency is the request's time from its release to the last byte, in
// ms. It includes the wait for a free connection, where a server stall
// delays later requests. It leaves out the generator's own lateness
// (enq - due, reported as gen.lag_p99_ms): Go's timers overshoot the
// sub-millisecond gaps of the schedule by up to a millisecond on Linux,
// which would otherwise read as server latency.
func (c *call) latency() float64 { return ms(c.o.done.Sub(c.enq)) }

func (c *call) failed() bool { return c.o.err != nil || c.o.status != http.StatusOK || c.wrong }

// driver issues requests over one client and records them.
type driver struct {
	cl   *http.Client
	base string
	rec  *recorder // nil when untraced
	// released, when set, counts requests the open loop has released.
	released *atomic.Int64
}

// issue sends one request, samples its answer for the checker and, when
// tracing, records its spans: a root covering due → done with the
// generator/connection wait and the HTTP exchange as children.
func (d *driver) issue(c *call) {
	c.o = do(d.cl, d.base, c.r)
	if c.o.err == nil {
		c.degraded = c.o.degraded()
		if c.r.Kind == kCohort && c.o.status == http.StatusOK {
			var err error
			if c.digest, c.sum, err = cohortAnswer(c.o.body); err != nil {
				c.digest = "cohort: " + err.Error()
			}
		} else if sampled(c.r) {
			c.digest = digest(c.r, c.o.status, c.o.body)
		}
	}
	c.o.body = nil // keep memory flat: the digest and summary carry what is checked
	if d.rec != nil {
		root := d.rec.add(c.r.ID, 0, "req."+c.r.Kind, c.due, c.o.done)
		d.rec.add(c.r.ID, root, "gen.wait", c.due, c.o.sent)
		d.rec.add(c.r.ID, root, "http."+c.r.Kind, c.o.sent, c.o.done)
	}
}

// openLoop sends reqs on their schedule from t0 regardless of how the
// server keeps up, over at most conns connections; a request waits for a
// free connection in arrival order. It stops releasing requests once
// stop is closed (nil: never) and returns the released calls when all
// have completed.
func (d *driver) openLoop(reqs []*request, conns int, t0 time.Time, stop <-chan struct{}) []*call {
	calls := make([]*call, 0, len(reqs))
	ch := make(chan *call, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				d.issue(c)
			}
		}()
	}
	for _, r := range reqs {
		due := t0.Add(r.Due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			goto done
		default:
		}
		c := &call{r: r, due: due, enq: time.Now()}
		calls = append(calls, c)
		if d.released != nil {
			d.released.Add(1)
		}
		ch <- c
	}
done:
	close(ch)
	wg.Wait()
	return calls
}

// closedLoop sends next() back to back on one connection until the
// deadline passes.
func (d *driver) closedLoop(next func() *request, until time.Time) []*call {
	var calls []*call
	for time.Now().Before(until) {
		now := time.Now()
		c := &call{r: next(), due: now, enq: now}
		d.issue(c)
		calls = append(calls, c)
	}
	return calls
}

// Ladder: the fixed geometric rate ladder behind sustained_rps, rung k
// offering ladderBase·2^(k/8) requests per second of the interactive mix
// over the warm (cached) positions: the capacity of the serving path the
// paper's user mostly takes. A rung lasts ladderRung and sends at least
// ladderMin requests, so its p99 has ten samples beyond it. One search
// climbs a doubling at a time until a rung fails and bisects the last
// doubling; sustained_rps is the median of ladderSearches searches, so
// one scheduling stall on a shared machine does not set the figure.
const (
	ladderBase     = 1000.0
	ladderSteps    = 8 // rungs per doubling
	ladderRung     = 300 * time.Millisecond
	ladderMin      = 1000
	ladderSearches = 3
	ladderSeed     = 424242
	// ladderLimitMs is the p99 latency limit a sustained rate must meet.
	ladderLimitMs = 25.0
)

func rungRate(k int) float64 { return ladderBase * math.Pow(2, float64(k)/ladderSteps) }

// rungResult is one measured rung.
type rungResult struct {
	rate, p99 float64
	ok        bool
}

// rung offers rung k's rate and judges it: nothing failed, the p99 from
// due time meets the limit, and the backlog did not grow (the last tenth
// of the requests waited less than half the limit).
func (d *driver) rung(p *pool, seed int64, k, firstID int) (rungResult, []*call) {
	res := rungResult{rate: rungRate(k)}
	n := max(ladderMin, int(res.rate*ladderRung.Seconds()))
	reqs := p.openSeq(seed+int64(k), firstID, n, res.rate, hotPositions)
	calls := d.openLoop(reqs, maxConns, time.Now(), nil)
	var lat, lastTenth sample
	failed := 0
	for i, c := range calls {
		lat = append(lat, c.latency())
		if i >= len(calls)*9/10 {
			lastTenth = append(lastTenth, c.latency())
		}
		if c.failed() {
			failed++
		}
	}
	res.p99 = lat.pct(99)
	res.ok = failed == 0 && res.p99 <= ladderLimitMs && lastTenth.median() <= ladderLimitMs/2
	return res, calls
}

// search finds the highest passing rung from rung start.
func (d *driver) search(p *pool, seed int64, start, firstID int) (float64, []rungResult, []*call) {
	var rungs []rungResult
	var all []*call
	try := func(k int) bool {
		res, calls := d.rung(p, seed, k, firstID+len(all))
		rungs = append(rungs, res)
		all = append(all, calls...)
		return res.ok
	}
	lo, hi := -1, -1 // highest passing and lowest failing rung seen
	for k := start; ; k += ladderSteps {
		if !try(k) {
			hi = k
			break
		}
		lo = k
		if k >= start+6*ladderSteps {
			return rungRate(k), rungs, all
		}
	}
	for lo < 0 {
		// Even the first rung failed: walk down until one passes.
		k := hi - ladderSteps
		if try(k) {
			lo = k
		} else {
			hi = k
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungRate(lo), rungs, all
}

// ladder runs the searches and returns the median sustained rate.
func (d *driver) ladder(p *pool, start, firstID int) (float64, []rungResult, []*call) {
	var rates sample
	var rungs []rungResult
	var all []*call
	for i := 0; i < ladderSearches; i++ {
		r, rs, calls := d.search(p, ladderSeed+int64(i)*7919, start, firstID+len(all))
		rates = append(rates, r)
		rungs = append(rungs, rs...)
		all = append(all, calls...)
	}
	return rates.median(), rungs, all
}
