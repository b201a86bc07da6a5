// Package admission implements cost-aware admission control for the
// exploration service: a deadline-aware bounded queue over a fixed pool
// of execution slots, plus the brownout health state the server's
// degradation machinery keys off.
//
// The pre-existing admission story was a flat semaphore: saturated
// meant an instant 429 for everyone, so a burst of expensive
// deep-horizon queries made the service fail hard exactly when users
// needed partial answers most. Here a request arrives with a cost
// estimate (see Estimator): when a slot is free it runs immediately;
// when the pool is saturated, cheap requests wait in a bounded queue
// for a slot (bounded by the queue depth, the queue timeout and the
// request's own context), while expensive ones are shed at once — under
// pressure the fleet's capacity goes to the many cheap interactive
// queries rather than a few exhaustive ones. RetryAfter computes an
// honest retry hint from live queue state (waiters, slots and the
// observed mean run time) instead of a hardcoded constant.
//
// Health: the controller derives one of three states. StateOK — slots
// free, nothing queued. StatePressured — saturated or queueing, but
// nothing shed recently. StateDegraded — the queue is at least half
// full, or a shed happened within the degrade-hold window (hysteresis:
// one shed keeps the state degraded briefly so the server's brownout
// reactions — stale serving, budget clamps — engage for the whole
// burst, not just the one unlucky request).
package admission

import (
	"context"
	"math"
	"sync/atomic"
	"time"
)

// Outcome reports how Acquire disposed of one request.
type Outcome int

const (
	// Admitted: a slot was free; the request runs immediately.
	Admitted Outcome = iota
	// AdmittedQueued: the request waited in the queue and then got a slot.
	AdmittedQueued
	// ShedCostly: saturated and the cost estimate crossed the costly
	// threshold — expensive uncached work is shed first.
	ShedCostly
	// ShedQueueFull: saturated with the queue at depth (or queueing
	// disabled).
	ShedQueueFull
	// ShedTimeout: queued, but the queue timeout or the request's own
	// deadline expired before a slot freed.
	ShedTimeout
	// Canceled: queued, and the request's context was cancelled — its
	// client left — before a slot freed. Not a shed: nobody waits for an
	// answer, so it counts nothing and does not latch brownout.
	Canceled
)

// String returns the stable label recorded in usage events.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case AdmittedQueued:
		return "queued"
	case ShedCostly:
		return "shed_costly"
	case ShedQueueFull:
		return "shed_queue_full"
	case ShedTimeout:
		return "queue_timeout"
	case Canceled:
		return "canceled"
	}
	return "unknown"
}

// Shed reports whether the outcome denied the request a slot under
// pressure (a Canceled request gave its place up).
func (o Outcome) Shed() bool { return o >= ShedCostly && o <= ShedTimeout }

// State is the controller's brownout health state.
type State int

const (
	StateOK State = iota
	StatePressured
	StateDegraded
)

// String returns the state's wire label ("ok", "pressured", "degraded").
func (s State) String() string {
	switch s {
	case StatePressured:
		return "pressured"
	case StateDegraded:
		return "degraded"
	}
	return "ok"
}

// Defaults applied by New for zero Config fields.
const (
	DefaultSlots        = 64
	DefaultQueueTimeout = 2 * time.Second
	DefaultCostlyMs     = 250
	DefaultDegradeHold  = 3 * time.Second
)

// Config sizes a Controller.
type Config struct {
	// Slots is the number of concurrently executing requests (the old
	// semaphore width). Defaults to DefaultSlots.
	Slots int
	// QueueDepth bounds the number of waiters when saturated; 0 disables
	// queueing entirely — every saturated request sheds instantly, the
	// pre-queue behaviour.
	QueueDepth int
	// QueueTimeout caps one request's queue wait (the request's own
	// context may be shorter). Defaults to DefaultQueueTimeout.
	QueueTimeout time.Duration
	// CostlyMs is the estimated-cost threshold (milliseconds) above which
	// a request is shed rather than queued when the pool is saturated.
	// Defaults to DefaultCostlyMs.
	CostlyMs float64
	// DegradeHold is how long after a shed the state stays degraded
	// (hysteresis). Defaults to DefaultDegradeHold.
	DegradeHold time.Duration
}

// Controller is the admission queue. All methods are safe for
// concurrent use.
type Controller struct {
	cfg   Config
	slots chan struct{}

	waiters  atomic.Int64
	avgBits  atomic.Uint64 // EWMA of observed run duration, float64 ms bits
	lastShed atomic.Int64  // unix nanos of the most recent shed; 0 = never

	queued, shedCostly, shedQueueFull, shedTimeout atomic.Int64
}

// New returns a Controller for cfg, applying defaults to zero fields
// (QueueDepth 0 is meaningful — queueing off — and kept).
func New(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.CostlyMs <= 0 {
		cfg.CostlyMs = DefaultCostlyMs
	}
	if cfg.DegradeHold <= 0 {
		cfg.DegradeHold = DefaultDegradeHold
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Controller{cfg: cfg, slots: make(chan struct{}, cfg.Slots)}
}

// Acquire admits one request with the given estimated cost (ms).
// On admission the returned release must be called when the run ends;
// it returns the slot and feeds the run's duration into the mean the
// retry hints use. On a shed outcome release is nil.
func (c *Controller) Acquire(ctx context.Context, costMs float64) (release func(), outcome Outcome) {
	select {
	case c.slots <- struct{}{}:
		return c.releaser(), Admitted
	default:
	}
	if c.cfg.QueueDepth == 0 {
		c.shed(&c.shedQueueFull)
		return nil, ShedQueueFull
	}
	if costMs >= c.cfg.CostlyMs {
		c.shed(&c.shedCostly)
		return nil, ShedCostly
	}
	if c.waiters.Load() >= int64(c.cfg.QueueDepth) {
		c.shed(&c.shedQueueFull)
		return nil, ShedQueueFull
	}
	c.waiters.Add(1)
	defer c.waiters.Add(-1)
	timer := time.NewTimer(c.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case c.slots <- struct{}{}:
		c.queued.Add(1)
		return c.releaser(), AdmittedQueued
	case <-timer.C:
		c.shed(&c.shedTimeout)
		return nil, ShedTimeout
	case <-ctx.Done():
		if ctx.Err() == context.Canceled {
			// The client left while queued: nothing was refused, so
			// nothing is counted and no pressure is signalled.
			return nil, Canceled
		}
		// The request's own deadline expired first: a timeout.
		c.shed(&c.shedTimeout)
		return nil, ShedTimeout
	}
}

// TryAcquire takes a slot without queueing or shedding side effects
// (no counters, no degrade latch) — the server's background
// revalidation and legacy test hooks use it.
func (c *Controller) TryAcquire() (release func(), ok bool) {
	select {
	case c.slots <- struct{}{}:
		return c.releaser(), true
	default:
		return nil, false
	}
}

func (c *Controller) releaser() func() {
	began := time.Now()
	var once atomic.Bool
	return func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		c.observeRun(time.Since(began))
		<-c.slots
	}
}

func (c *Controller) shed(counter *atomic.Int64) {
	counter.Add(1)
	c.lastShed.Store(time.Now().UnixNano())
}

// observeRun folds one completed run's duration into the EWMA the
// retry hints use.
func (c *Controller) observeRun(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := c.avgBits.Load()
		next := ms
		if old != 0 {
			prev := math.Float64frombits(old)
			next = prev + 0.2*(ms-prev)
		}
		if c.avgBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// AvgRunMs returns the observed mean run duration (0 until a run
// completes).
func (c *Controller) AvgRunMs() float64 {
	return math.Float64frombits(c.avgBits.Load())
}

// RetryAfter estimates, in whole seconds (min 1, capped at 60), how
// long a shed request should wait before retrying: the current queue
// must drain ahead of it, at the observed mean run time spread across
// the slot pool. This is the honest Retry-After the server sends.
func (c *Controller) RetryAfter() int {
	avg := c.AvgRunMs()
	if avg <= 0 {
		avg = 100 // nothing observed yet; assume a tenth of a second
	}
	waitMs := (float64(c.waiters.Load()) + 1) * avg / float64(cap(c.slots))
	secs := int(math.Ceil(waitMs / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// State derives the brownout health state; see the package comment.
func (c *Controller) State() State {
	if last := c.lastShed.Load(); last > 0 && time.Since(time.Unix(0, last)) < c.cfg.DegradeHold {
		return StateDegraded
	}
	w := c.waiters.Load()
	if c.cfg.QueueDepth > 0 && w >= int64((c.cfg.QueueDepth+1)/2) {
		return StateDegraded
	}
	if len(c.slots) >= cap(c.slots) || w > 0 {
		return StatePressured
	}
	return StateOK
}

// Snapshot is a point-in-time view of the controller for the health and
// stats surfaces.
type Snapshot struct {
	State         string  `json:"state"`
	InFlight      int     `json:"inFlight"`
	Slots         int     `json:"slots"`
	Waiters       int     `json:"waiters"`
	QueueDepth    int     `json:"queueDepth"`
	AvgRunMs      float64 `json:"avgRunMs"`
	Queued        int64   `json:"queued"`
	ShedCostly    int64   `json:"shedCostly"`
	ShedQueueFull int64   `json:"shedQueueFull"`
	ShedTimeout   int64   `json:"shedTimeout"`
}

// Snapshot returns the current counters and state.
func (c *Controller) Snapshot() Snapshot {
	return Snapshot{
		State:         c.State().String(),
		InFlight:      len(c.slots),
		Slots:         cap(c.slots),
		Waiters:       int(c.waiters.Load()),
		QueueDepth:    c.cfg.QueueDepth,
		AvgRunMs:      c.AvgRunMs(),
		Queued:        c.queued.Load(),
		ShedCostly:    c.shedCostly.Load(),
		ShedQueueFull: c.shedQueueFull.Load(),
		ShedTimeout:   c.shedTimeout.Load(),
	}
}
