// Package server implements CourseNavigator's front-end service (paper
// §3, Figure 2) as a JSON-over-HTTP API on the public coursenav façade.
//
// The service is multi-tenant: one process hosts a registry of
// independent catalogs (one per institution), each served in isolation
// under /api/v1/t/{tenant}/... with its own snapshot generations,
// result-cache partition and concurrency quota. The bare /api/v1/...
// routes resolve to the "default" tenant, so single-tenant deployments
// keep their pre-tenancy URLs:
//
//	GET  /healthz                             liveness probe
//	GET  /api/v1[/t/{tenant}]/catalog         all courses
//	GET  /api/v1[/t/{tenant}]/courses/{id}    one course
//	GET  /api/v1[/t/{tenant}]/options         current option set Y
//	                                          (?term=Fall 2013&completed=...)
//	POST /api/v1[/t/{tenant}]/explore/deadline  deadline-driven paths
//	POST /api/v1[/t/{tenant}]/explore/goal      goal-driven paths
//	POST /api/v1[/t/{tenant}]/explore/ranked    top-k ranked paths
//	POST /api/v1[/t/{tenant}]/explore/whatif    rank this semester's selections
//	POST /api/v1[/t/{tenant}]/audit             degree-progress report
//	POST /api/v1[/t/{tenant}]/admin/reload      catalog hot-reload
//	GET  /api/v1/t/{tenant}/stats             one tenant's usage statistics
//	GET  /api/v1/stats                        fleet-wide usage aggregate
//	GET  /api/v1/healthz                      brownout/breaker health detail
//	GET  /api/v1/admin/tenants                list the tenant registry
//	POST /api/v1/admin/tenants                load a tenant manifest
//	GET  /                                    embedded single-page visualizer
//
// The unversioned /api/... aliases of the first release are gone; they
// answer 404 with a detail hint pointing at /api/v1/. The explore
// endpoints share one request shape (ExploreRequest) with per-endpoint
// extras, and every error is the unified envelope
// {"error":{"code","message","detail"}} — see API.md at the repository
// root for the full reference.
//
// Request lifecycle: each explore request runs under a context derived
// from the client connection and capped at RequestTimeout (optionally
// lowered per request via the budget field), so a client disconnect or
// an adversarial window stops the engine within one node expansion and
// returns the partial result with summary.stopped set. Admission is
// two-level: a per-tenant quota (429 tenant_overloaded) is taken before
// the process-wide cost-aware admission queue (admit.go, internal/
// admission), so one tenant's burst cannot starve the others. Under
// saturation cheap requests wait briefly in a bounded queue while
// expensive uncached ones are shed first, every shed carrying an honest
// Retry-After derived from live queue state; sustained pressure trips
// the brownout ladder (stale cache serving, clamped budgets — see
// cache.go and GET /api/v1/healthz). Materialised graphs additionally
// respect the hard NodeBudget (422 budget_exceeded), the condition the
// paper's Table 2 reports as "N/A".
//
// Each tenant's catalog is served from an atomic snapshot pointer; see
// reload.go for the hot-reload path (validate-then-swap with rollback)
// and tenant.go for the registry. Handler panics are recovered into the
// internal error envelope with a logged stack, so a poisoned request
// cannot take the process down.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/resultcache"
	"repro/internal/tenant"
	"repro/internal/usage"
)

// DefaultNodeBudget bounds materialised graphs per request.
const DefaultNodeBudget = 500_000

// DefaultMaxResponseNodes bounds the number of graph nodes serialised in
// a response.
const DefaultMaxResponseNodes = 2_000

// DefaultRequestTimeout caps one exploration's wall clock; the engine
// returns its partial result when the cap fires.
const DefaultRequestTimeout = 10 * time.Second

// DefaultMaxConcurrent bounds in-flight explorations before the service
// sheds load with 429.
const DefaultMaxConcurrent = 64

// Machine-readable error codes of the v1 error envelope.
const (
	CodeBadRequest        = "bad_request"
	CodeUnknownCourse     = "unknown_course"
	CodeNotFound          = "not_found"
	CodeBudgetExceeded    = "budget_exceeded"
	CodeOverloaded        = "overloaded"
	CodeTenantOverloaded  = "tenant_overloaded"
	CodeUnknownTenant     = "unknown_tenant"
	CodeInternal          = "internal"
	CodeReloadRejected    = "reload_rejected"
	CodeReloadUnavailable = "reload_unavailable"
)

// Server wires a registry of Navigators into an http.Handler.
//
// Each tenant's navigator is held behind an atomic snapshot pointer:
// every request reads the pointer once on entry and runs entirely
// against that snapshot, so a hot reload (ReloadNow, POST
// .../admin/reload) swapping in a new catalog never disturbs
// explorations already in flight. The exported nav/generation/Cache/
// Loader fields below ARE the default tenant's state — tenant.go's
// registry aliases them — so single-tenant call sites keep working
// unchanged.
type Server struct {
	nav atomic.Pointer[coursenav.Navigator]
	mux *http.ServeMux
	// NodeBudget and MaxResponseNodes override the defaults when positive.
	NodeBudget       int
	MaxResponseNodes int
	// RequestTimeout caps each exploration's wall clock (default
	// DefaultRequestTimeout). Clients may lower it per request via the
	// budget field, never raise it.
	RequestTimeout time.Duration
	// MaxConcurrent bounds in-flight explorations across ALL tenants
	// (default DefaultMaxConcurrent); set before the first request is
	// served.
	MaxConcurrent int
	// AdmissionQueue bounds the number of cheap requests waiting for an
	// exploration slot when the pool is saturated; 0 disables queueing
	// (every saturated request sheds instantly, the pre-queue semantics).
	// New sets DefaultAdmissionQueue; set before the first request.
	AdmissionQueue int
	// QueueTimeout caps one request's wait in the admission queue
	// (default admission.DefaultQueueTimeout). Set before the first
	// request.
	QueueTimeout time.Duration
	// CostlyMs is the estimated-cost threshold (ms) above which a request
	// is shed rather than queued when the pool is saturated (default
	// admission.DefaultCostlyMs). Set before the first request.
	CostlyMs float64
	// Brownout gates the degraded-mode reactions (stale cache serving,
	// budget clamps); the health state itself is always derived. New sets
	// true.
	Brownout bool
	// BrownoutHold is the degraded-state hysteresis window (default
	// admission.DefaultDegradeHold). Set before the first request.
	BrownoutHold time.Duration
	// DegradedTimeout and DegradedMaxNodes clamp each admitted
	// exploration's soft budget while degraded, trading completeness for
	// fast well-formed partial results (defaults DefaultDegradedTimeout /
	// DefaultDegradedMaxNodes).
	DegradedTimeout  time.Duration
	DegradedMaxNodes int64
	// Estimator prices requests for admission (per-key observed history
	// over the depth/breadth seed). New installs one; nil falls back to
	// seed-only estimates.
	Estimator *admission.Estimator
	// Chaos, when set, injects faults at the server's chaos seams
	// (handler entry, mid-stream writes, reload-source reads) for the
	// fault-injection test harness. nil in production.
	Chaos *chaos.Injector
	// BreakerThreshold is the consecutive reload-source failure count
	// that trips a tenant's circuit breaker (default
	// DefaultBreakerThreshold); BreakerCooldown how long a tripped
	// breaker refuses reload attempts (default DefaultBreakerCooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ReloadRetries is how many times a failed reload-source read is
	// retried before counting as a failure (default DefaultReloadRetries;
	// negative disables retries); ReloadBackoff the base delay between
	// attempts, doubled each retry. LoaderTimeout caps one loader call.
	ReloadRetries int
	ReloadBackoff time.Duration
	LoaderTimeout time.Duration
	// CohortWorkers is the default member-pipeline width for cohort jobs
	// when the request leaves workers unset (0 means
	// DefaultCohortWorkers; 1 forces serial). Requests may pick their own
	// width within [1, maxCohortWorkers].
	CohortWorkers int
	// TenantMaxConcurrent caps each tenant's in-flight explorations
	// (429 tenant_overloaded) unless the tenant's manifest entry sets its
	// own. 0 (the default) leaves tenants bounded only by the global
	// semaphore. Set before the first request is served.
	TenantMaxConcurrent int
	// CacheBytes is the global result-cache byte budget carved into fair
	// per-tenant partition shares whenever the registry grows or shrinks
	// (0 means DefaultCacheBytes). Set before adding tenants.
	CacheBytes int64
	// Usage records every API call for the /api/v1/stats aggregate (§6's
	// "collect and analyze usage logs"); tenant-scoped traffic is
	// attributed per tenant.
	Usage *usage.Log
	// Loader, when set, enables hot reload for the DEFAULT tenant:
	// ReloadNow and the /api/v1/admin/reload endpoint re-parse the
	// catalog source through it. Set before the first request is served.
	Loader Loader
	// Cache is the DEFAULT tenant's snapshot-versioned result-cache
	// partition, serving repeated identical explore requests without
	// re-exploring (see cache.go). New installs one with
	// DefaultCacheBytes; set nil to disable caching for that tenant.
	Cache *resultcache.Cache

	admission  *admission.Controller
	admOnce    sync.Once     // builds the controller from the knobs on first acquire
	reloadMu   sync.Mutex    // serialises default-tenant reload attempts
	generation atomic.Uint64 // default tenant's successful swaps since start

	registry   atomic.Pointer[map[string]*tenantState] // copy-on-write; see tenant.go
	registryMu sync.Mutex                              // serialises registry mutations
	routes     []string                                // every registered mux pattern
}

// Navigator returns the default tenant's currently serving catalog
// snapshot. Handlers read it once per request; callers may use it for
// diagnostics.
func (s *Server) Navigator() *coursenav.Navigator { return s.nav.Load() }

// Generation returns the default tenant's successful catalog swaps
// since start.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// New returns a Server serving nav as its default tenant.
func New(nav *coursenav.Navigator) *Server {
	s := &Server{
		NodeBudget:       DefaultNodeBudget,
		MaxResponseNodes: DefaultMaxResponseNodes,
		RequestTimeout:   DefaultRequestTimeout,
		MaxConcurrent:    DefaultMaxConcurrent,
		AdmissionQueue:   DefaultAdmissionQueue,
		Brownout:         true,
		Estimator:        admission.NewEstimator(),
		Usage:            usage.NewLog(4096),
		Cache:            resultcache.New(DefaultCacheBytes),
	}
	s.nav.Store(nav)
	def := &tenantState{id: tenant.Default, srv: s, def: true}
	reg := map[string]*tenantState{tenant.Default: def}
	s.registry.Store(&reg)

	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, h)
		s.routes = append(s.routes, pattern)
	}
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Every tenant-scoped route is registered twice: under the
	// /api/v1/t/{tenant} prefix, and bare under /api/v1 resolving to the
	// default tenant (backward compatibility for single-tenant
	// deployments). Both forms hit the same handler with the resolved
	// tenant, so responses are byte-for-byte identical.
	for _, rt := range []struct {
		pattern string
		h       tenantHandler
	}{
		{"GET /catalog", s.handleCatalog},
		{"GET /courses/{id}", s.handleCourse},
		{"GET /options", s.handleOptions},
		// Explore handlers admit through the serving pipeline themselves
		// (serveCached, serveStream): cache hits and coalesced followers
		// never occupy an exploration slot.
		{"POST /explore/deadline", s.handleDeadline},
		{"POST /explore/goal", s.handleGoal},
		{"POST /explore/ranked", s.handleRanked},
		{"POST /explore/whatif", s.handleWhatIf},
		// Cohort jobs run each member as an individually admitted unit
		// (runUnit), so the job itself occupies no exploration slot either.
		{"POST /cohort", s.handleCohort},
		{"POST /audit", s.handleAudit},
		{"POST /admin/reload", s.handleReload},
	} {
		method, path, _ := strings.Cut(rt.pattern, " ")
		handle(method+" /api/v1"+path, s.withDefault(rt.h))
		handle(method+" /api/v1/t/{tenant}"+path, s.withTenant(rt.h))
	}
	// Stats: the tenant-scoped form reports one tenant; the bare form is
	// the fleet-wide aggregate, not a default-tenant alias.
	handle("GET /api/v1/t/{tenant}/stats", s.withTenant(s.handleTenantStats))
	handle("GET /api/v1/stats", s.handleStats)
	handle("GET /api/v1/healthz", s.handleHealthz)
	handle("GET /api/v1/admin/tenants", s.handleTenantsList)
	handle("POST /api/v1/admin/tenants", s.handleTenantsLoad)
	handle("GET /{$}", s.handleUI)
	s.mux = mux
	return s
}

// Routes returns every mux pattern registered by New, for the
// route-inventory guard that keeps API.md in sync with the surface.
// Opt-in extras (EnablePprof) are excluded.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// ServeHTTP implements http.Handler, recording every request in the
// usage log under its canonical endpoint (tenant-scoped traffic is
// recorded under the bare path with the tenant attributed separately).
// A handler panic is recovered into the v1 internal error envelope with
// a logged stack, so one poisoned request cannot kill the process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, ev: usage.Event{Status: http.StatusOK}}
	began := time.Now()
	defer func() {
		if p := recover(); p != nil {
			log.Printf("server: panic handling %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			switch {
			case rec.ndjson && rec.writeErr == nil:
				// The stream already committed to NDJSON framing (200 went
				// out), so the envelope path would splice a JSON object into
				// the middle of a record stream. Close with an in-band
				// {"error":...} terminal record instead — the protocol's own
				// failure marker — so the client sees a well-formed stream
				// that ended in a declared error, never a torn one.
				_, _ = rec.Write(appendErrorRecord(nil, errorBody{Error: errorInfo{
					Code:    CodeInternal,
					Message: fmt.Sprintf("internal server error mid-stream handling %s %s", r.Method, r.URL.Path),
				}}))
				rec.Flush()
			case !rec.wroteHeader:
				writeErr(rec, http.StatusInternalServerError, CodeInternal,
					"internal server error handling %s %s", r.Method, r.URL.Path)
			}
		}
		rec.ev.When = time.Now()
		rec.ev.Endpoint = r.Method + " " + canonicalPath(r.URL.Path)
		rec.ev.WriteAborted = rec.writeErr != nil
		rec.ev.Duration = time.Since(began)
		s.Usage.Record(rec.ev)
	}()
	// The handler-entry chaos seam: an injected error answers 503 before
	// dispatch, injected latency delays it, an injected panic exercises
	// the recovery envelope above. A nil injector is a no-op.
	if err := s.Chaos.Fire(chaos.HandlerEntry); err != nil {
		writeErr(rec, http.StatusServiceUnavailable, CodeInternal,
			"injected fault at handler entry: %v", err)
		return
	}
	// The unversioned /api/... aliases of the first release are retired.
	// The check runs before mux dispatch (a catch-all "/api/" pattern
	// would shadow the mux's 405 Method-Not-Allowed answers for real v1
	// paths), so retired paths get a pointed 404 instead of a bare one.
	if strings.HasPrefix(r.URL.Path, "/api/") && !strings.HasPrefix(r.URL.Path, "/api/v1/") {
		writeErrDetail(rec, http.StatusNotFound, CodeNotFound,
			"the unversioned /api/... aliases were removed; use the /api/v1/ form of this path",
			"unknown path %s", r.URL.Path)
		return
	}
	s.mux.ServeHTTP(rec, r)
}

// canonicalPath strips the tenant segment from a tenant-scoped path so
// usage aggregates per logical endpoint: /api/v1/t/acme/explore/goal is
// recorded as /api/v1/explore/goal (with the tenant on the event).
func canonicalPath(p string) string {
	if rest, ok := strings.CutPrefix(p, "/api/v1/t/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return "/api/v1" + rest[i:]
		}
		return "/api/v1"
	}
	return p
}

// acquire reserves a global concurrency slot without queueing,
// returning its release func, or ok=false when the server is saturated.
// It is the legacy instant-acquire hook (tests hold slots through it);
// request admission goes through admit (admit.go), which prices the
// request and may queue it.
func (s *Server) acquire() (release func(), ok bool) {
	return s.adm().TryAcquire()
}

// statusRecorder carries the request's usage event, which handlers
// annotate (usageEvent) and ServeHTTP records with the status, endpoint
// and timing filled in. It also remembers the first response-write
// failure — on a streamed response that is the client hanging up
// mid-stream, which usage reports as a write abort.
type statusRecorder struct {
	http.ResponseWriter
	ev          usage.Event
	wroteHeader bool
	writeErr    error
	// ndjson marks that the response committed to NDJSON stream framing
	// (the stream writer put the 200 + x-ndjson header on the wire), so
	// the panic recovery must close the stream with an in-band error
	// record rather than an envelope.
	ndjson bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.ev.Status = code
	r.wroteHeader = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wroteHeader = true // an implicit 200 header accompanies the first write
	n, err := r.ResponseWriter.Write(b)
	if err != nil && r.writeErr == nil {
		r.writeErr = err
	}
	return n, err
}

// Flush forwards to the underlying writer so NDJSON records reach the
// client while the run is still going. The stream writer calls it on its
// bounded-delay schedule (stream.go), from the handler's goroutine or
// its flush timer's, never both at once and never after the handler
// returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// globalStats is the fleet-wide /api/v1/stats body: the cross-tenant
// usage aggregate (flattened, so single-tenant clients see the same
// shape as before tenancy) plus a per-tenant breakdown. Cache counters
// are summed across every tenant's partition.
type globalStats struct {
	usage.Stats
	// Health is the brownout state ("ok", "pressured", "degraded" —
	// breaker-open tenants count as degraded) and Admission the live
	// controller snapshot behind it.
	Health    string             `json:"health"`
	Admission admission.Snapshot `json:"admission"`
	Tenants   []tenantOverview   `json:"tenants"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.Usage.Snapshot()
	var agg usage.CacheStats
	cached := false
	for _, t := range s.tenantsSorted() {
		if c := t.resultCache(); c != nil {
			cs := c.Stats()
			agg.Hits += cs.Hits
			agg.Misses += cs.Misses
			agg.Coalesced += cs.Coalesced
			agg.Evictions += cs.Evictions
			agg.Bytes += cs.Bytes
			agg.Entries += cs.Entries
			agg.StaleEntries += cs.StaleEntries
			agg.StaleHits += cs.StaleHits
			cached = true
		}
	}
	if cached {
		snap.Cache = &agg
	}
	writeJSON(w, http.StatusOK, globalStats{
		Stats:     snap,
		Health:    s.healthState(),
		Admission: s.adm().Snapshot(),
		Tenants:   s.overviews(),
	})
}

// errorBody is the unified v1 error envelope.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	// Code is a stable machine-readable identifier (CodeBadRequest, …).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Detail carries optional remediation or context.
	Detail string `json:"detail,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeErrDetail(w, status, code, "", format, args...)
}

func writeErrDetail(w http.ResponseWriter, status int, code, detail, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: errorInfo{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Detail:  detail,
	}})
}

// writeNavErr maps a façade error onto the envelope: the hard node
// budget becomes 422 budget_exceeded, unknown course IDs become
// unknown_course, everything else is a plain bad_request.
func (s *Server) writeNavErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, explore.ErrGraphTooLarge):
		writeErrDetail(w, http.StatusUnprocessableEntity, CodeBudgetExceeded,
			"narrow the period, lower maxPerTerm, set countOnly, or pass a budget for a partial result",
			"learning graph exceeds the %d-node interactive budget", s.NodeBudget)
	case strings.Contains(err.Error(), "unknown course"):
		writeErr(w, http.StatusBadRequest, CodeUnknownCourse, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
}

func (s *Server) handleCatalog(t *tenantState, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, t.navigator().Courses())
}

func (s *Server) handleCourse(t *tenantState, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := t.navigator().Course(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeUnknownCourse, "unknown course %q", id)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleOptions(t *tenantState, w http.ResponseWriter, r *http.Request) {
	termLabel := r.URL.Query().Get("term")
	if termLabel == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing ?term=")
		return
	}
	var completed []string
	if raw := r.URL.Query().Get("completed"); raw != "" {
		for _, c := range strings.Split(raw, ",") {
			completed = append(completed, strings.TrimSpace(c))
		}
	}
	opts, err := t.navigator().FeasibleNow(completed, termLabel)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"options": opts})
}

// GoalSpec selects one goal form; exactly one field may be set.
type GoalSpec struct {
	// Courses: complete all of these.
	Courses []string `json:"courses,omitempty"`
	// Expr: satisfy this boolean expression.
	Expr string `json:"expr,omitempty"`
	// Degree: counted requirement groups.
	Degree []coursenav.DegreeGroup `json:"degree,omitempty"`
}

// buildGoal resolves a goal spec against the given catalog snapshot (the
// one the calling handler is serving the whole request from).
func buildGoal(nav *coursenav.Navigator, spec GoalSpec) (coursenav.Goal, error) {
	set := 0
	if len(spec.Courses) > 0 {
		set++
	}
	if spec.Expr != "" {
		set++
	}
	if len(spec.Degree) > 0 {
		set++
	}
	if set != 1 {
		return coursenav.Goal{}, fmt.Errorf("goal must set exactly one of courses, expr, degree")
	}
	switch {
	case len(spec.Courses) > 0:
		return nav.GoalCourses(spec.Courses...)
	case spec.Expr != "":
		return nav.GoalExpr(spec.Expr)
	default:
		return nav.GoalDegree(spec.Degree...)
	}
}

// QuerySpec is the request form of coursenav.Query.
type QuerySpec struct {
	Completed  []string `json:"completed,omitempty"`
	Start      string   `json:"start"`
	End        string   `json:"end"`
	MaxPerTerm int      `json:"maxPerTerm,omitempty"`
	// Avoid lists courses no generated path may elect.
	Avoid []string `json:"avoid,omitempty"`
	// MaxTermWorkload caps per-semester workload hours.
	MaxTermWorkload float64 `json:"maxTermWorkload,omitempty"`
	// MinPerTerm floors courses per enrolled semester.
	MinPerTerm int `json:"minPerTerm,omitempty"`
	// MaxPathCost restricts ranked results to paths within this cost.
	MaxPathCost float64 `json:"maxPathCost,omitempty"`
	// CountOnly skips graph materialisation and returns tallies only,
	// allowing Table-2-scale queries.
	CountOnly bool `json:"countOnly,omitempty"`
}

// BudgetSpec is the request form of coursenav.Budget: soft per-request
// bounds that end a run with a partial result (summary.stopped) rather
// than an error.
type BudgetSpec struct {
	// TimeoutMs lowers the server's request timeout for this run.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// MaxNodes bounds generated statuses.
	MaxNodes int64 `json:"maxNodes,omitempty"`
	// MaxPaths bounds tallied paths.
	MaxPaths int64 `json:"maxPaths,omitempty"`
}

// ExploreRequest is the one request shape shared by the explore
// endpoints (deadline, goal, ranked, whatif). Query and budget apply
// everywhere; goal applies to all but deadline; ranking, weights and k
// are ranked-only extras. Endpoints reject fields that do not apply to
// them, so a misdirected request fails loudly instead of silently
// dropping options.
type ExploreRequest struct {
	Query  QuerySpec   `json:"query"`
	Goal   *GoalSpec   `json:"goal,omitempty"`
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Ranking names a single ranking function (ranked only).
	Ranking string `json:"ranking,omitempty"`
	// Weights ranks by a linear combination instead (ranked only).
	Weights []coursenav.Weight `json:"weights,omitempty"`
	// K is the number of paths to return (ranked only).
	K int `json:"k,omitempty"`
}

// checkExtras rejects fields that do not apply to the handling endpoint.
func (req *ExploreRequest) checkExtras(w http.ResponseWriter, endpoint string, wantGoal, wantRanked bool) bool {
	var extra []string
	if !wantGoal && req.Goal != nil {
		extra = append(extra, "goal")
	}
	if !wantRanked {
		if req.Ranking != "" {
			extra = append(extra, "ranking")
		}
		if len(req.Weights) > 0 {
			extra = append(extra, "weights")
		}
		if req.K != 0 {
			extra = append(extra, "k")
		}
	}
	if len(extra) > 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"field(s) %s do not apply to %s", strings.Join(extra, ", "), endpoint)
		return false
	}
	return true
}

// goal resolves the request's goal spec, which must be present, against
// the handler's catalog snapshot.
func (s *Server) goal(nav *coursenav.Navigator, w http.ResponseWriter, req *ExploreRequest) (coursenav.Goal, bool) {
	if req.Goal == nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing goal")
		return coursenav.Goal{}, false
	}
	g, err := buildGoal(nav, *req.Goal)
	if err != nil {
		s.writeNavErr(w, err)
		return coursenav.Goal{}, false
	}
	return g, true
}

func (s *Server) query(qs QuerySpec, b *BudgetSpec) coursenav.Query {
	q := coursenav.Query{
		Completed:       qs.Completed,
		Start:           qs.Start,
		End:             qs.End,
		MaxPerTerm:      qs.MaxPerTerm,
		Avoid:           qs.Avoid,
		MaxTermWorkload: qs.MaxTermWorkload,
		MinPerTerm:      qs.MinPerTerm,
		MaxPathCost:     qs.MaxPathCost,
		MaxNodes:        s.NodeBudget,
	}
	if b != nil {
		q.Budget.MaxNodes = b.MaxNodes
		q.Budget.MaxPaths = b.MaxPaths
	}
	// Brownout clamp: while degraded, every run gets a soft node cap so
	// it returns a well-formed partial result (summary.stopped set)
	// instead of holding a slot for a full-budget exploration.
	if s.degradedNow() {
		clamp := s.DegradedMaxNodes
		if clamp <= 0 {
			clamp = DefaultDegradedMaxNodes
		}
		if q.Budget.MaxNodes <= 0 || q.Budget.MaxNodes > clamp {
			q.Budget.MaxNodes = clamp
		}
	}
	return q
}

// runCtx derives the request's exploration context: the client
// connection's context capped at RequestTimeout, lowered further by the
// request budget when given. Client disconnects and timer expiry both
// cancel the engine mid-run.
func (s *Server) runCtx(r *http.Request, b *BudgetSpec) (context.Context, context.CancelFunc) {
	return s.unitCtx(r.Context(), b)
}

// unitCtx is runCtx's context-based core, shared with the cohort
// pipeline: each cohort member's sub-exploration gets its own
// RequestTimeout-capped (and brownout-clamped) context derived from the
// job's, so one slow unit cannot consume the whole job's wall clock and
// a cancelled job stops the running unit mid-engine.
func (s *Server) unitCtx(ctx context.Context, b *BudgetSpec) (context.Context, context.CancelFunc) {
	timeout := s.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	if b != nil && b.TimeoutMs > 0 {
		if d := time.Duration(b.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	// Brownout clamp: degraded mode trades run length for queue drain —
	// the engine returns its partial result when the lowered cap fires.
	if s.degradedNow() {
		clamp := s.DegradedTimeout
		if clamp <= 0 {
			clamp = DefaultDegradedTimeout
		}
		if clamp < timeout {
			timeout = clamp
		}
	}
	return context.WithTimeout(ctx, timeout)
}

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// The deadline and goal endpoints answer with the envelope
//
//	{"summary":{...},"graph":{...},"truncated":true}
//
// ("graph" and "truncated" omitted on countOnly runs). Truncated reports
// that the rendered graph was cut to MaxResponseNodes; a budget- or
// cancel-truncated *run* is reported by summary.stopped instead. The
// envelope is appended by appendExploreBody (render.go).

type summaryBody struct {
	Paths       int64   `json:"paths"`
	GoalPaths   int64   `json:"goalPaths"`
	Nodes       int64   `json:"nodes"`
	Edges       int64   `json:"edges"`
	PrunedTime  int64   `json:"prunedTime"`
	PrunedAvail int64   `json:"prunedAvail"`
	ElapsedMs   float64 `json:"elapsedMs"`
	// Stopped names why the run ended early ("canceled", "deadline",
	// "max-nodes", "max-paths"); empty for a complete run.
	Stopped string `json:"stopped,omitempty"`
	// Truncated mirrors Stopped != "": the tallies are lower bounds.
	Truncated bool `json:"truncated,omitempty"`
	// DAG reports that the run was answered on the interned-status DAG
	// substrate (countOnly requests are); nodes/edges then count distinct
	// statuses and transitions rather than tree positions.
	DAG bool `json:"dag,omitempty"`
}

func toSummaryBody(sum coursenav.Summary) summaryBody {
	return summaryBody{
		Paths: sum.Paths, GoalPaths: sum.GoalPaths,
		Nodes: sum.Nodes, Edges: sum.Edges,
		PrunedTime: sum.PrunedTime, PrunedAvail: sum.PrunedAvail,
		ElapsedMs: float64(sum.Elapsed.Microseconds()) / 1000,
		Stopped:   sum.Stopped,
		Truncated: sum.Truncated,
		DAG:       sum.DAG,
	}
}

func (s *Server) respondGraph(w http.ResponseWriter, g *coursenav.Graph, sum coursenav.Summary, err error) {
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	s.writeExplore(w, sum, g)
}

// writeExplore answers with the explore envelope, rendered once into
// one buffer (appendExploreBody). A summary that cannot be rendered is a
// 500; a graph that cannot be rendered leaves the 200 body cut after
// "graph":.
func (s *Server) writeExplore(w http.ResponseWriter, sum coursenav.Summary, g *coursenav.Graph) {
	rb := newRenderBuf()
	var err error
	if rb.b, err = s.appendExploreBody(rb.b, sum, g); err != nil && len(rb.b) == 0 {
		rb.release()
		writeErr(w, http.StatusInternalServerError, CodeInternal, "rendering summary: %v", err)
		return
	}
	respond(w, rb)
}

func (s *Server) handleDeadline(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decode(w, r, &req) {
		return
	}
	if !req.checkExtras(w, "explore/deadline", false, false) {
		return
	}
	// The generation is read before the navigator snapshot: reload stores
	// the navigator first and bumps the generation after, so gen is never
	// newer than nav and a result is never cached under a catalog that
	// did not produce it.
	gen := t.gen()
	nav := t.navigator()
	canonicalize(nav, &req)
	if wantsStream(r) {
		if !streamable(w, &req) {
			return
		}
		s.serveStream(t, w, r, &req, "deadline", gen, func(publish bool) *resultcache.Entry {
			var collected *coursenav.Graph
			sum, complete := s.streamPaths(w, r, &req, func(ctx context.Context, fn func(coursenav.StreamedPath) error) (coursenav.Summary, error) {
				g, sum, err := nav.DeadlineStreamCollect(ctx, s.query(req.Query, req.Budget), s.NodeBudget, fn)
				collected = g
				return sum, err
			})
			if !publish || !complete || collected == nil {
				return nil
			}
			return s.graphEntry(req.Query, sum, collected, sum.Paths)
		})
		return
	}
	s.serveCached(t, w, r, &req, "deadline", gen, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.runCtx(r, req.Budget)
		defer cancel()
		if req.Query.CountOnly {
			sum, err := nav.DeadlineCountCtx(ctx, s.query(req.Query, req.Budget))
			if err != nil {
				s.writeNavErr(w, err)
				return
			}
			annotate(w, req.Query, sum.Paths, sum.Stopped)
			annotateDAG(w, sum)
			s.writeExplore(w, sum, nil)
			return
		}
		g, sum, err := nav.DeadlineCtx(ctx, s.query(req.Query, req.Budget))
		annotate(w, req.Query, sum.Paths, sum.Stopped)
		s.respondGraph(w, g, sum, err)
	})
}

func (s *Server) handleGoal(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decode(w, r, &req) {
		return
	}
	if !req.checkExtras(w, "explore/goal", true, false) {
		return
	}
	gen := t.gen()
	nav := t.navigator()
	canonicalize(nav, &req)
	if wantsStream(r) {
		if !streamable(w, &req) {
			return
		}
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		s.serveStream(t, w, r, &req, "goal", gen, func(publish bool) *resultcache.Entry {
			var collected *coursenav.Graph
			sum, complete := s.streamPaths(w, r, &req, func(ctx context.Context, fn func(coursenav.StreamedPath) error) (coursenav.Summary, error) {
				g, sum, err := nav.GoalStreamCollect(ctx, s.query(req.Query, req.Budget), goal, s.NodeBudget, fn)
				collected = g
				return sum, err
			})
			if !publish || !complete || collected == nil {
				return nil
			}
			return s.graphEntry(req.Query, sum, collected, sum.GoalPaths)
		})
		return
	}
	s.serveCached(t, w, r, &req, "goal", gen, func(w http.ResponseWriter, r *http.Request) {
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		ctx, cancel := s.runCtx(r, req.Budget)
		defer cancel()
		if req.Query.CountOnly {
			sum, err := nav.GoalPathsCountCtx(ctx, s.query(req.Query, req.Budget), goal)
			if err != nil {
				s.writeNavErr(w, err)
				return
			}
			annotate(w, req.Query, sum.GoalPaths, sum.Stopped)
			annotateDAG(w, sum)
			s.writeExplore(w, sum, nil)
			return
		}
		g, sum, err := nav.GoalPathsCtx(ctx, s.query(req.Query, req.Budget), goal)
		annotate(w, req.Query, sum.GoalPaths, sum.Stopped)
		s.respondGraph(w, g, sum, err)
	})
}

type rankedResponse struct {
	Summary summaryBody      `json:"summary"`
	Paths   []coursenav.Path `json:"paths"`
}

func (s *Server) handleRanked(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decode(w, r, &req) {
		return
	}
	gen := t.gen()
	nav := t.navigator()
	canonicalize(nav, &req)
	if wantsStream(r) {
		if !streamable(w, &req) {
			return
		}
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		// The stream delivers paths in rank order — exactly the slice the
		// non-streaming response carries — so a clean run can populate the
		// cache for future non-streaming requests.
		s.serveStream(t, w, r, &req, "ranked", gen, func(publish bool) *resultcache.Entry {
			ranked := []coursenav.Path{}
			sum, complete := s.streamPaths(w, r, &req, func(ctx context.Context, fn func(coursenav.StreamedPath) error) (coursenav.Summary, error) {
				collect := func(p coursenav.StreamedPath) error {
					if err := fn(p); err != nil {
						return err
					}
					ranked = append(ranked, p.Path)
					return nil
				}
				if len(req.Weights) > 0 {
					return nav.TopKWeightedStream(ctx, s.query(req.Query, req.Budget), goal, req.Weights, req.K, collect)
				}
				return nav.TopKStream(ctx, s.query(req.Query, req.Budget), goal, req.Ranking, req.K, collect)
			})
			if !publish || !complete {
				return nil
			}
			return s.rankedEntry(req.Query, sum, ranked)
		})
		return
	}
	s.serveCached(t, w, r, &req, "ranked", gen, func(w http.ResponseWriter, r *http.Request) {
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		ctx, cancel := s.runCtx(r, req.Budget)
		defer cancel()
		var paths []coursenav.Path
		var sum coursenav.Summary
		var err error
		if len(req.Weights) > 0 {
			paths, sum, err = nav.TopKWeightedCtx(ctx, s.query(req.Query, req.Budget), goal, req.Weights, req.K)
		} else {
			paths, sum, err = nav.TopKCtx(ctx, s.query(req.Query, req.Budget), goal, req.Ranking, req.K)
		}
		if err != nil {
			s.writeNavErr(w, err)
			return
		}
		annotate(w, req.Query, int64(len(paths)), sum.Stopped)
		// A body encoding/json would refuse leaves the 200 empty: the
		// renderer's byte identity covers failures too (render.go).
		rb := newRenderBuf()
		rb.b, _ = appendRanked(rb.b, rankedResponse{Summary: toSummaryBody(sum), Paths: paths})
		respond(w, rb)
	})
}

type auditRequest struct {
	Completed  []string `json:"completed,omitempty"`
	Goal       GoalSpec `json:"goal"`
	Now        string   `json:"now,omitempty"`
	Deadline   string   `json:"deadline,omitempty"`
	MaxPerTerm int      `json:"maxPerTerm,omitempty"`
}

func (s *Server) handleAudit(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req auditRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Goal.Degree) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "audit requires a degree goal")
		return
	}
	nav := t.navigator()
	goal, err := nav.GoalDegree(req.Goal.Degree...)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	rep, err := nav.Audit(req.Completed, goal, req.Now, req.Deadline, req.MaxPerTerm)
	if err != nil {
		s.writeNavErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// whatIfResponse is the body of the whatif endpoint.
type whatIfResponse struct {
	Selections []coursenav.SelectionImpact `json:"selections"`
	// Stopped names why scoring ended early; the listed selections are
	// fully scored, later candidates are missing.
	Stopped string `json:"stopped,omitempty"`
}

func (s *Server) handleWhatIf(t *tenantState, w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decode(w, r, &req) {
		return
	}
	if !req.checkExtras(w, "explore/whatif", true, false) {
		return
	}
	gen := t.gen()
	nav := t.navigator()
	canonicalize(nav, &req)
	if wantsStream(r) {
		if !streamable(w, &req) {
			return
		}
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		// Streamed what-if delivers selections in enumeration order while
		// the non-streaming response sorts by impact, so a stream never
		// populates the whatif cache.
		s.serveStream(t, w, r, &req, "whatif", gen, func(bool) *resultcache.Entry {
			s.streamWhatIf(w, r, &req, nav, goal)
			return nil
		})
		return
	}
	s.serveCached(t, w, r, &req, "whatif", gen, func(w http.ResponseWriter, r *http.Request) {
		goal, ok := s.goal(nav, w, &req)
		if !ok {
			return
		}
		ctx, cancel := s.runCtx(r, req.Budget)
		defer cancel()
		impacts, stopped, err := nav.CompareSelectionsCtx(ctx, s.query(req.Query, req.Budget), goal)
		if err != nil {
			s.writeNavErr(w, err)
			return
		}
		annotate(w, req.Query, int64(len(impacts)), stopped)
		rb := newRenderBuf()
		rb.b = appendWhatIf(rb.b, whatIfResponse{Selections: impacts, Stopped: stopped})
		respond(w, rb)
	})
}
