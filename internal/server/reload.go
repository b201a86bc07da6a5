// Hot reload: every tenant holds its Navigator behind an atomic
// snapshot pointer. A reload re-parses that tenant's catalog source,
// validates the result with the integrity checker, and atomically swaps
// the pointer on success; on any failure the old snapshot keeps serving
// — rollback is the absence of the swap, so there is never a torn or
// half-loaded catalog. In-flight requests hold the snapshot they
// started with and are never disturbed, and tenants reload
// independently: swapping one catalog never touches another tenant's
// snapshot or cache partition.
//
// The reload source is the one external dependency the serving path
// has, so it gets the full resilience treatment: each loader call runs
// under a timeout with panic containment (loadOnce), transient read
// failures are retried with doubling backoff (loadResilient), and a
// source that keeps failing trips a per-tenant circuit breaker —
// further reload attempts are refused instantly until a cooldown
// expires, so a dead registrar feed cannot tie up the reload mutex or
// hammer a struggling upstream while the last good catalog keeps
// serving. Source failures alone feed the breaker; a catalog that loads
// but fails validation proves the source readable and resets the count.
package server

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/integrity"
	"repro/internal/registrar"
)

// Reload-resilience defaults (see the matching Server fields).
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
	DefaultReloadRetries    = 2
	DefaultReloadBackoff    = 50 * time.Millisecond
	DefaultLoaderTimeout    = 30 * time.Second
)

// Loader produces a freshly built Navigator for hot reload, plus the
// import report when the source was parsed leniently. It is called with
// the reload mutex held, so at most one load runs at a time.
type Loader func() (*coursenav.Navigator, *coursenav.ImportReport, error)

// ReloadStatus reports one reload attempt.
type ReloadStatus struct {
	// OK reports whether the new catalog was swapped in.
	OK bool `json:"ok"`
	// Tenant is the tenant the attempt targeted ("default" for the bare
	// admin route and ReloadNow).
	Tenant string `json:"tenant,omitempty"`
	// Generation counts successful swaps since the server started; it is
	// the generation now serving (unchanged when the reload was
	// rejected).
	Generation uint64 `json:"generation"`
	// Courses is the new catalog's size (successful reloads only).
	Courses int `json:"courses,omitempty"`
	// Reason describes why the reload was rejected (rejections only).
	Reason string `json:"reason,omitempty"`
	// Integrity is the validator's report for the candidate catalog; on
	// a rejection it names exactly what gated the swap.
	Integrity *integrity.Report `json:"integrity,omitempty"`
	// Diagnostics and Quarantined surface the lenient import's findings.
	Diagnostics []registrar.Diagnostic `json:"diagnostics,omitempty"`
	Quarantined []string               `json:"quarantined,omitempty"`
	// BreakerTripped marks the failure that opened the tenant's circuit
	// breaker; BreakerOpen marks an attempt refused by an already-open
	// breaker (no load was attempted).
	BreakerTripped bool `json:"breakerTripped,omitempty"`
	BreakerOpen    bool `json:"breakerOpen,omitempty"`
}

// ReloadNow runs one reload attempt for the DEFAULT tenant: load a
// candidate catalog via the configured Loader, gate it on the integrity
// validator, swap it in atomically on success. On any failure the
// serving snapshot is left untouched and the returned status says why.
// Concurrent calls are serialised; requests in flight during a swap
// finish on the snapshot they started with.
func (s *Server) ReloadNow() ReloadStatus {
	st, _ := s.defaultTenant().reload(nil)
	return st
}

// reload runs one reload attempt for this tenant. A non-nil newLoader
// replaces the tenant's catalog source, but only commits together with
// the swap — a source that fails to load or validate leaves the old
// loader AND the old catalog serving (the manifest-update path relies
// on this). configured is false when the tenant has no loader at all.
func (t *tenantState) reload(newLoader Loader) (st ReloadStatus, configured bool) {
	mu := t.reloadMutex()
	mu.Lock()
	defer mu.Unlock()
	st = ReloadStatus{Tenant: t.id, Generation: t.gen()}
	loader := newLoader
	if loader == nil {
		loader = t.catalogLoader()
	}
	if loader == nil {
		st.Reason = "hot reload is not configured: the tenant has no reloadable catalog source"
		return st, false
	}
	if t.breakerOpen() {
		st.BreakerOpen = true
		st.Reason = fmt.Sprintf(
			"reload circuit breaker is open after %d consecutive source failures; retrying at %s",
			t.breakerFails, time.Unix(0, t.breakerOpenUntil.Load()).UTC().Format(time.RFC3339))
		return st, true
	}
	nav, rep, err := t.loadResilient(loader)
	if rep != nil {
		st.Diagnostics = rep.Diagnostics
		st.Quarantined = rep.Quarantined
	}
	if err != nil {
		// A source failure (after retries): feed the breaker.
		t.breakerFails++
		if threshold := t.srv.breakerThreshold(); t.breakerFails >= threshold {
			t.breakerOpenUntil.Store(time.Now().Add(t.srv.breakerCooldown()).UnixNano())
			st.BreakerTripped = true
			log.Printf("server: tenant %s: reload breaker opened after %d consecutive source failures", t.id, t.breakerFails)
		}
		st.Reason = "loading catalog: " + err.Error()
		return st, true
	}
	// The source was readable: whatever happens below is a content
	// problem, not a source problem. Close the breaker path.
	t.breakerFails = 0
	t.breakerOpenUntil.Store(0)
	if nav == nil {
		st.Reason = "loader returned no catalog"
		return st, true
	}
	report := nav.Integrity()
	st.Integrity = &report
	if !report.OK() {
		st.Reason = "catalog failed integrity validation: " + report.Summary()
		return st, true
	}
	st.Courses = nav.NumCourses()
	t.storeNav(nav)
	st.Generation = t.bumpGen()
	if c := t.resultCache(); c != nil {
		// Every cached result and in-flight coalesced run in THIS tenant's
		// partition belongs to the catalog just replaced; the generation
		// bump makes old entries unreachable and Invalidate drops them (and
		// the flight map) so stale work cannot poison the new snapshot.
		// Other tenants' partitions are untouched.
		c.Invalidate(st.Generation)
	}
	if newLoader != nil {
		t.setLoader(newLoader)
	}
	st.OK = true
	return st, true
}

// Breaker/retry knobs resolved with their defaults. ReloadRetries is
// special: 0 means "default", negative disables retries outright (tests
// that want a single fast failure set -1).
func (s *Server) breakerThreshold() int {
	if s.BreakerThreshold > 0 {
		return s.BreakerThreshold
	}
	return DefaultBreakerThreshold
}

func (s *Server) breakerCooldown() time.Duration {
	if s.BreakerCooldown > 0 {
		return s.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (s *Server) reloadRetries() int {
	switch {
	case s.ReloadRetries > 0:
		return s.ReloadRetries
	case s.ReloadRetries < 0:
		return 0
	}
	return DefaultReloadRetries
}

func (s *Server) reloadBackoff() time.Duration {
	if s.ReloadBackoff > 0 {
		return s.ReloadBackoff
	}
	return DefaultReloadBackoff
}

func (s *Server) loaderTimeout() time.Duration {
	if s.LoaderTimeout > 0 {
		return s.LoaderTimeout
	}
	return DefaultLoaderTimeout
}

// loadResilient reads the tenant's catalog source with retries: a
// transient failure (a registrar feed mid-rotation, a flaky mount) is
// retried with doubling backoff before it counts against the breaker.
// Only the final attempt's error is reported.
func (t *tenantState) loadResilient(loader Loader) (nav *coursenav.Navigator, rep *coursenav.ImportReport, err error) {
	retries := t.srv.reloadRetries()
	backoff := t.srv.reloadBackoff()
	for attempt := 0; ; attempt++ {
		nav, rep, err = t.loadOnce(loader)
		if err == nil || attempt >= retries {
			return nav, rep, err
		}
		log.Printf("server: tenant %s: reload source read failed (attempt %d/%d), retrying in %v: %v",
			t.id, attempt+1, retries+1, backoff, err)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// loadOnce runs one loader call in a goroutine so it can be bounded by
// the loader timeout, with panics contained as errors — a reload source
// must never be able to hang the reload mutex forever or kill the
// process. The chaos ReloadRead seam fires inside the goroutine, so
// injected panics exercise the same containment as real ones. On
// timeout the goroutine is abandoned (its eventual result is discarded
// via the buffered channel); the Loader contract keeps loads
// side-effect-free until they return.
func (t *tenantState) loadOnce(loader Loader) (*coursenav.Navigator, *coursenav.ImportReport, error) {
	type loadResult struct {
		nav *coursenav.Navigator
		rep *coursenav.ImportReport
		err error
	}
	ch := make(chan loadResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- loadResult{err: fmt.Errorf("catalog source panicked: %v", p)}
			}
		}()
		if err := t.srv.Chaos.Fire(chaos.ReloadRead); err != nil {
			ch <- loadResult{err: fmt.Errorf("reading catalog source: %w", err)}
			return
		}
		nav, rep, err := loader()
		ch <- loadResult{nav: nav, rep: rep, err: err}
	}()
	timeout := t.srv.loaderTimeout()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.nav, res.rep, res.err
	case <-timer.C:
		return nil, nil, fmt.Errorf("catalog source read timed out after %v", timeout)
	}
}

// reloadFailure is the body of a rejected reload: the unified error
// envelope plus the full reload status, so operators see the validator
// report and the lenient import's diagnostics in one response.
type reloadFailure struct {
	Error  errorInfo    `json:"error"`
	Reload ReloadStatus `json:"reload"`
}

func (s *Server) handleReload(t *tenantState, w http.ResponseWriter, r *http.Request) {
	st, configured := t.reload(nil)
	if !configured {
		writeErr(w, http.StatusNotImplemented, CodeReloadUnavailable,
			"hot reload is not configured; give tenant %q a reloadable catalog source", t.id)
		return
	}
	if ev := usageEvent(w); ev != nil {
		if st.OK {
			ev.Reload = "applied"
		} else {
			ev.Reload = "rejected"
		}
		switch {
		case st.BreakerTripped:
			ev.Breaker = "tripped"
		case st.BreakerOpen:
			ev.Breaker = "open"
		}
	}
	if !st.OK {
		log.Printf("server: tenant %s: reload rejected: %s", t.id, st.Reason)
		writeJSON(w, http.StatusUnprocessableEntity, reloadFailure{
			Error: errorInfo{
				Code:    CodeReloadRejected,
				Message: "catalog reload rejected; the previous catalog is still serving",
				Detail:  st.Reason,
			},
			Reload: st,
		})
		return
	}
	log.Printf("server: tenant %s: reload applied: generation %d, %d courses", t.id, st.Generation, st.Courses)
	writeJSON(w, http.StatusOK, st)
}
