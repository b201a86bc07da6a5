// Package usage collects and analyses exploration-service usage logs —
// the paper's §6 deployment plan ("collect and analyze usage logs and
// eventually build a robust, highly usable learning path exploration
// service") — so operators can see what students ask for and how the
// service performs.
//
// A Log is a bounded in-memory ring of structured Events; Snapshot
// aggregates it into per-endpoint counts, latency quantiles, popular
// exploration windows and error rates. The HTTP service records every
// API call and exposes the aggregate at /api/stats.
package usage

import (
	"sort"
	"sync"
	"time"
)

// Event is one recorded service request.
type Event struct {
	// When is the request completion time.
	When time.Time `json:"when"`
	// Endpoint is the normalised route, e.g.
	// "POST /api/v1/explore/goal" (tenant-prefixed /api/v1/t/{tenant}/...
	// traffic is recorded under the bare canonical path, with the tenant
	// in Tenant).
	Endpoint string `json:"endpoint"`
	// Tenant is the tenant the request was served for ("default" on the
	// bare /api/v1/... routes); empty for tenant-less surfaces (healthz,
	// the global stats aggregate, the admin tenants API, the UI).
	Tenant string `json:"tenant,omitempty"`
	// Window is the exploration window ("Fall 2013 → Fall 2015"), empty
	// for non-exploration endpoints.
	Window string `json:"window,omitempty"`
	// Paths is the number of paths the response reported.
	Paths int64 `json:"paths,omitempty"`
	// Stopped names why the exploration ended early ("canceled",
	// "deadline", "max-nodes", "max-paths"); empty for complete runs and
	// non-exploration endpoints.
	Stopped string `json:"stopped,omitempty"`
	// Reload is "applied" or "rejected" for catalog hot-reload attempts
	// (the admin endpoint or SIGHUP); empty otherwise.
	Reload string `json:"reload,omitempty"`
	// Streamed reports an incremental (?stream=1 NDJSON) response.
	Streamed bool `json:"streamed,omitempty"`
	// StreamedPaths counts path records delivered before the stream ended
	// (complete, budget-stopped or client-disconnected alike).
	StreamedPaths int64 `json:"streamedPaths,omitempty"`
	// WriteAborted reports that a response write failed mid-stream — the
	// client went away while path records were still flowing.
	WriteAborted bool `json:"writeAborted,omitempty"`
	// Cache is the result-cache disposition of an explore request: "hit"
	// (replayed), "coalesced" (shared an identical in-flight run), "miss"
	// (computed) or "stale" (brownout replay of the previous snapshot's
	// entry); empty for uncached surfaces.
	Cache string `json:"cache,omitempty"`
	// Admission is how the admission controller disposed of the request
	// when it did anything beyond an instant admit: "queued" (waited for a
	// slot), "shed_costly", "shed_queue_full" or "queue_timeout"; empty
	// for instant admits and unadmitted surfaces.
	Admission string `json:"admission,omitempty"`
	// Breaker marks circuit-breaker activity on a reload attempt:
	// "tripped" (this failure opened the breaker) or "open" (the attempt
	// was refused by an already-open breaker); empty otherwise.
	Breaker string `json:"breaker,omitempty"`
	// Degraded reports the response was served under brownout degradation
	// (stale replay or clamped budgets).
	Degraded bool `json:"degraded,omitempty"`
	// DAG reports that the exploration was answered on the interned-status
	// DAG substrate (countOnly requests are); cache replays do not count.
	DAG bool `json:"dag,omitempty"`
	// DAGNodes is the number of distinct statuses the DAG run interned —
	// the cost measure that replaces per-path work on that substrate.
	DAGNodes int64 `json:"dagNodes,omitempty"`
	// Cohort marks a batch cohort-simulation job (POST /api/v1/cohort);
	// CohortMembers is how many members the job replanned before ending,
	// CohortCoalesced how many of its units were answered by the result
	// cache or an in-flight twin instead of fresh computation, and
	// CohortCancelled whether the client cancelled the job mid-stream.
	Cohort          bool  `json:"cohort,omitempty"`
	CohortMembers   int64 `json:"cohortMembers,omitempty"`
	CohortCoalesced int64 `json:"cohortCoalesced,omitempty"`
	CohortCancelled bool  `json:"cohortCancelled,omitempty"`
	// CohortSharedHits counts the job's counting units answered by a
	// pure shared-substrate root lookup; CohortDPReused the statuses
	// whose DP results were reused across member builds — together the
	// measure of cross-member amortisation beyond the result cache.
	CohortSharedHits int64 `json:"cohortSharedHits,omitempty"`
	CohortDPReused   int64 `json:"cohortDPReused,omitempty"`
	// Duration is the handling latency.
	Duration time.Duration `json:"durationNs"`
	// Status is the HTTP status code returned.
	Status int `json:"status"`
}

// Log is a bounded, concurrency-safe event ring. It stores each event
// as a compact slot, in blocks of ringBlock slots allocated as events
// arrive, so an idle server holds almost nothing, growth never copies,
// and a full ring costs ~150 bytes per event instead of an Event's ~260.
type Log struct {
	mu       sync.Mutex
	capacity int
	blocks   [][]slot
	n        int // events held, ≤ capacity
	next     int // once full, the oldest slot (the next to overwrite)
}

// ringBlock is the ring's allocation unit, in slots (~38 KB).
const ringBlock = 256

func (l *Log) at(i int) *slot { return &l.blocks[i/ringBlock][i%ringBlock] }

// slot is one recorded Event in compact form: the Stopped, Reload, Cache,
// Admission and Breaker strings become one-byte codes (enumNames) and
// the booleans bit flags. An event that does not fit — an enum value
// outside enumNames, a status beyond int16 — is kept whole in full.
type slot struct {
	when                     time.Time
	endpoint, tenant, window string
	paths, streamedPaths     int64
	dagNodes                 int64
	cohortMembers            int64
	cohortCoalesced          int64
	cohortSharedHits         int64
	cohortDPReused           int64
	duration                 time.Duration
	full                     *Event
	status                   int16
	stopped, reload, cache   uint8
	admission, breaker       uint8
	flags                    uint8
}

const (
	flagStreamed uint8 = 1 << iota
	flagWriteAborted
	flagDegraded
	flagDAG
	flagCohort
	flagCohortCancelled
)

// enumNames lists every documented value of Event's enum fields; a
// slot stores a value as its index here (0, the empty string, means
// unset).
var enumNames = [...]string{
	"",
	"canceled", "deadline", "max-nodes", "max-paths", "sink", // Stopped
	"applied", "rejected", // Reload
	"hit", "coalesced", "miss", "stale", // Cache
	"queued", "shed_costly", "shed_queue_full", "queue_timeout", // Admission
	"tripped", "open", // Breaker
}

// enumCode returns s's index in enumNames.
func enumCode(s string) (uint8, bool) {
	switch s {
	case "":
		return 0, true
	case "canceled":
		return 1, true
	case "deadline":
		return 2, true
	case "max-nodes":
		return 3, true
	case "max-paths":
		return 4, true
	case "sink":
		return 5, true
	case "applied":
		return 6, true
	case "rejected":
		return 7, true
	case "hit":
		return 8, true
	case "coalesced":
		return 9, true
	case "miss":
		return 10, true
	case "stale":
		return 11, true
	case "queued":
		return 12, true
	case "shed_costly":
		return 13, true
	case "shed_queue_full":
		return 14, true
	case "queue_timeout":
		return 15, true
	case "tripped":
		return 16, true
	case "open":
		return 17, true
	}
	return 0, false
}

func compact(e Event) slot {
	s := slot{
		when:             e.When,
		endpoint:         e.Endpoint,
		tenant:           e.Tenant,
		window:           e.Window,
		paths:            e.Paths,
		streamedPaths:    e.StreamedPaths,
		dagNodes:         e.DAGNodes,
		cohortMembers:    e.CohortMembers,
		cohortCoalesced:  e.CohortCoalesced,
		cohortSharedHits: e.CohortSharedHits,
		cohortDPReused:   e.CohortDPReused,
		duration:         e.Duration,
		status:           int16(e.Status),
		flags: flag(e.Streamed, flagStreamed) | flag(e.WriteAborted, flagWriteAborted) |
			flag(e.Degraded, flagDegraded) | flag(e.DAG, flagDAG) |
			flag(e.Cohort, flagCohort) | flag(e.CohortCancelled, flagCohortCancelled),
	}
	var ok [5]bool
	s.stopped, ok[0] = enumCode(e.Stopped)
	s.reload, ok[1] = enumCode(e.Reload)
	s.cache, ok[2] = enumCode(e.Cache)
	s.admission, ok[3] = enumCode(e.Admission)
	s.breaker, ok[4] = enumCode(e.Breaker)
	if ok != [5]bool{true, true, true, true, true} || int(s.status) != e.Status {
		full := e // a copy, so only this rare path moves the event to the heap
		return slot{full: &full}
	}
	return s
}

func flag(on bool, f uint8) uint8 {
	if on {
		return f
	}
	return 0
}

func (s *slot) event() Event {
	if s.full != nil {
		return *s.full
	}
	return Event{
		When:             s.when,
		Endpoint:         s.endpoint,
		Tenant:           s.tenant,
		Window:           s.window,
		Paths:            s.paths,
		Stopped:          enumNames[s.stopped],
		Reload:           enumNames[s.reload],
		Streamed:         s.flags&flagStreamed != 0,
		StreamedPaths:    s.streamedPaths,
		WriteAborted:     s.flags&flagWriteAborted != 0,
		Cache:            enumNames[s.cache],
		Admission:        enumNames[s.admission],
		Breaker:          enumNames[s.breaker],
		Degraded:         s.flags&flagDegraded != 0,
		DAG:              s.flags&flagDAG != 0,
		DAGNodes:         s.dagNodes,
		Cohort:           s.flags&flagCohort != 0,
		CohortMembers:    s.cohortMembers,
		CohortCoalesced:  s.cohortCoalesced,
		CohortCancelled:  s.flags&flagCohortCancelled != 0,
		CohortSharedHits: s.cohortSharedHits,
		CohortDPReused:   s.cohortDPReused,
		Duration:         s.duration,
		Status:           int(s.status),
	}
}

// NewLog returns a ring holding the most recent capacity events
// (minimum 1). Storage is allocated as events arrive.
func NewLog(capacity int) *Log {
	return &Log{capacity: max(capacity, 1)}
}

// Record appends an event, evicting the oldest when full.
func (l *Log) Record(e Event) {
	s := compact(e)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < l.capacity {
		if l.n%ringBlock == 0 {
			l.blocks = append(l.blocks, make([]slot, min(ringBlock, l.capacity-l.n)))
		}
		*l.at(l.n) = s
		l.n++
		return
	}
	*l.at(l.next) = s
	l.next = (l.next + 1) % l.n
}

// Events returns the recorded events, oldest first.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := range out {
		out[i] = l.at((l.next + i) % l.n).event()
	}
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// EndpointStats aggregates one endpoint's events.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"` // status >= 400
	P50Ms    float64 `json:"p50Ms"`
	P95Ms    float64 `json:"p95Ms"`
	MaxMs    float64 `json:"maxMs"`
}

// WindowCount is an exploration window with its request count.
type WindowCount struct {
	Window string `json:"window"`
	Count  int    `json:"count"`
}

// Stats is an aggregated usage snapshot.
type Stats struct {
	Total  int `json:"total"`
	Errors int `json:"errors"`
	// BudgetHits counts runs truncated by a request budget (deadline,
	// max-nodes or max-paths) — a signal that students routinely ask
	// questions bigger than the interactive budget.
	BudgetHits int `json:"budgetHits"`
	// Canceled counts runs ended by client disconnect.
	Canceled int `json:"canceled"`
	// StreamedRequests counts incremental (NDJSON) responses and
	// StreamedPaths the total path records they delivered — together the
	// adoption signal for the streaming surface.
	StreamedRequests int   `json:"streamedRequests"`
	StreamedPaths    int64 `json:"streamedPaths"`
	// WriteAborts counts streams cut by the client mid-response (the
	// socket closed while path records were still being written).
	WriteAborts int `json:"writeAborts"`
	// ReloadsApplied and ReloadsRejected count catalog hot-reload
	// outcomes (admin endpoint and SIGHUP), so operators can see how
	// often new registrar data arrives and how often the integrity gate
	// turns it away.
	ReloadsApplied  int `json:"reloadsApplied"`
	ReloadsRejected int `json:"reloadsRejected"`
	// CacheHits/CacheCoalesced count explore requests answered from the
	// result cache or by sharing an identical in-flight run (from the
	// event ring, so bounded by its capacity).
	CacheHits      int `json:"cacheHits"`
	CacheCoalesced int `json:"cacheCoalesced"`
	// DAGAnswered counts explorations the interned-status DAG substrate
	// computed (countOnly requests; cache replays excluded) and DAGNodes
	// the distinct statuses those runs interned — together the signal for
	// how much counting work the DAG absorbs and at what cost.
	DAGAnswered int   `json:"dagAnswered"`
	DAGNodes    int64 `json:"dagNodes"`
	// Overload-resilience counters (never omitted — operators alert on
	// them, so a zero must be visibly a zero). Queued counts requests that
	// waited in the admission queue before running; ShedCostly requests
	// shed for crossing the cost threshold while saturated; ShedQueueFull
	// requests shed with the queue at depth; QueueTimeouts queued requests
	// that timed out waiting; StaleServed brownout replays of the previous
	// snapshot's cache entries; BreakerOpen reload attempts refused or
	// tripped by a tenant's circuit breaker.
	Queued        int `json:"queued"`
	ShedCostly    int `json:"shedCostly"`
	ShedQueueFull int `json:"shedQueueFull"`
	QueueTimeouts int `json:"queueTimeouts"`
	StaleServed   int `json:"staleServed"`
	BreakerOpen   int `json:"breakerOpen"`
	// Cohort-job counters (never omitted, same alerting contract as the
	// overload counters above). CohortJobs counts batch simulation jobs,
	// CohortMembers the students they replanned, CohortCancelled jobs cut
	// by client disconnect mid-stream, and CohortCoalesced member units
	// answered from the result cache or an in-flight twin — the measure
	// of how much batch work the unit cache absorbs.
	CohortJobs      int   `json:"cohortJobs"`
	CohortMembers   int64 `json:"cohortMembers"`
	CohortCancelled int   `json:"cohortCancelled"`
	CohortCoalesced int64 `json:"cohortCoalesced"`
	// CohortSharedHits / CohortDPReused aggregate the shared-substrate
	// tallies (see Event); like the other cohort counters they are never
	// omitted, so dashboards can alert on them going flat.
	CohortSharedHits int64 `json:"cohortSharedHits"`
	CohortDPReused   int64 `json:"cohortDPReused"`
	// Cache is the live result-cache snapshot (counters since process
	// start, unbounded by the ring), injected by the server when caching
	// is enabled.
	Cache     *CacheStats     `json:"cache,omitempty"`
	Endpoints []EndpointStats `json:"endpoints"`
	// TopWindows lists the most-queried exploration windows, a proxy for
	// which academic periods students care about.
	TopWindows []WindowCount `json:"topWindows,omitempty"`
}

// Snapshot aggregates the log across all tenants.
func (l *Log) Snapshot() Stats {
	return aggregate(l.Events())
}

// SnapshotTenant aggregates only the events recorded for one tenant, for
// the per-tenant /api/v1/t/{tenant}/stats surface.
func (l *Log) SnapshotTenant(tenant string) Stats {
	all := l.Events()
	events := make([]Event, 0, len(all))
	for _, e := range all {
		if e.Tenant == tenant {
			events = append(events, e)
		}
	}
	return aggregate(events)
}

// TenantCount is one tenant's request/error totals from the event ring.
type TenantCount struct {
	Tenant   string `json:"tenant"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
}

// TenantCounts returns per-tenant request totals (busiest first, then by
// ID), used by the global stats aggregate. Tenant-less events (healthz,
// admin surfaces, the UI) are not attributed.
func (l *Log) TenantCounts() []TenantCount {
	byTenant := map[string]*TenantCount{}
	for _, e := range l.Events() {
		if e.Tenant == "" {
			continue
		}
		tc := byTenant[e.Tenant]
		if tc == nil {
			tc = &TenantCount{Tenant: e.Tenant}
			byTenant[e.Tenant] = tc
		}
		tc.Requests++
		if e.Status >= 400 {
			tc.Errors++
		}
	}
	out := make([]TenantCount, 0, len(byTenant))
	for _, tc := range byTenant {
		out = append(out, *tc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// aggregate folds a slice of events into a Stats.
func aggregate(events []Event) Stats {
	byEndpoint := map[string][]Event{}
	windows := map[string]int{}
	st := Stats{Total: len(events)}
	for _, e := range events {
		byEndpoint[e.Endpoint] = append(byEndpoint[e.Endpoint], e)
		if e.Status >= 400 {
			st.Errors++
		}
		switch e.Stopped {
		case "":
		case "canceled":
			st.Canceled++
		default:
			st.BudgetHits++
		}
		switch e.Reload {
		case "applied":
			st.ReloadsApplied++
		case "rejected":
			st.ReloadsRejected++
		}
		if e.Streamed {
			st.StreamedRequests++
			st.StreamedPaths += e.StreamedPaths
		}
		if e.WriteAborted {
			st.WriteAborts++
		}
		switch e.Cache {
		case "hit":
			st.CacheHits++
		case "coalesced":
			st.CacheCoalesced++
		case "stale":
			st.StaleServed++
		}
		switch e.Admission {
		case "queued":
			st.Queued++
		case "shed_costly":
			st.ShedCostly++
		case "shed_queue_full":
			st.ShedQueueFull++
		case "queue_timeout":
			st.QueueTimeouts++
		}
		if e.Breaker != "" {
			st.BreakerOpen++
		}
		if e.DAG {
			st.DAGAnswered++
			st.DAGNodes += e.DAGNodes
		}
		if e.Cohort {
			st.CohortJobs++
			st.CohortMembers += e.CohortMembers
			st.CohortCoalesced += e.CohortCoalesced
			st.CohortSharedHits += e.CohortSharedHits
			st.CohortDPReused += e.CohortDPReused
			if e.CohortCancelled {
				st.CohortCancelled++
			}
		}
		if e.Window != "" {
			windows[e.Window]++
		}
	}
	for ep, evs := range byEndpoint {
		durations := make([]float64, len(evs))
		errs := 0
		for i, e := range evs {
			durations[i] = float64(e.Duration.Microseconds()) / 1000
			if e.Status >= 400 {
				errs++
			}
		}
		sort.Float64s(durations)
		st.Endpoints = append(st.Endpoints, EndpointStats{
			Endpoint: ep,
			Requests: len(evs),
			Errors:   errs,
			P50Ms:    quantile(durations, 0.50),
			P95Ms:    quantile(durations, 0.95),
			MaxMs:    durations[len(durations)-1],
		})
	}
	sort.Slice(st.Endpoints, func(i, j int) bool {
		if st.Endpoints[i].Requests != st.Endpoints[j].Requests {
			return st.Endpoints[i].Requests > st.Endpoints[j].Requests
		}
		return st.Endpoints[i].Endpoint < st.Endpoints[j].Endpoint
	})
	for w, n := range windows {
		st.TopWindows = append(st.TopWindows, WindowCount{Window: w, Count: n})
	}
	sort.Slice(st.TopWindows, func(i, j int) bool {
		if st.TopWindows[i].Count != st.TopWindows[j].Count {
			return st.TopWindows[i].Count > st.TopWindows[j].Count
		}
		return st.TopWindows[i].Window < st.TopWindows[j].Window
	})
	if len(st.TopWindows) > 10 {
		st.TopWindows = st.TopWindows[:10]
	}
	return st
}

// CacheStats mirrors the result cache's lifetime counters for the stats
// surface.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Evictions    int64 `json:"evictions"`
	Bytes        int64 `json:"bytes"`
	Entries      int   `json:"entries"`
	StaleEntries int   `json:"staleEntries"`
	StaleHits    int64 `json:"staleHits"`
}

// quantile returns the q-quantile of sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
