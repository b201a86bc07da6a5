// Result caching for the explore endpoints.
//
// The interactive workload the paper targets (§5: a student tweaks one knob
// and re-explores) is dominated by repeated, semantically identical
// requests against a catalog that changes only at reload time. Every
// non-streaming explore response is therefore cached under
// (catalog snapshot generation, canonicalized request, endpoint) and
// replayed byte-for-byte on a hit; concurrent identical misses coalesce
// into one exploration via the cache's flight mechanism. Streaming
// requests bypass the cache on the read side but populate it when the run
// completes cleanly and the rendered result fits the per-entry cap — see
// the stream branches of the explore handlers.
//
// Cache hits skip the exploration semaphore entirely (a replay is a memcpy,
// not an exploration); misses and coalescing fallbacks acquire a slot
// exactly as before, so load shedding still protects the engines. The
// X-Cache response header reports hit/coalesced/miss on every cached-path
// response for observability; responses are otherwise byte-identical to an
// uncached server's (tests assert this per endpoint).
//
// Invalidation is generational: ReloadNow bumps the generation and calls
// Invalidate, making every pre-reload entry unreachable (the generation is
// part of the key) and dropping the coalescing map so in-flight
// old-snapshot work cannot poison the new generation. Handlers read the
// generation BEFORE the navigator snapshot: the reload path stores the
// navigator first and bumps the generation after, so a request that
// observes generation g is guaranteed a navigator at least as new as g —
// results are never cached under a newer generation than the catalog that
// produced them.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"sort"
	"strings"

	"repro"
	"repro/internal/resultcache"
)

// DefaultCacheBytes is the result cache's byte budget (charged by rendered
// response size).
const DefaultCacheBytes = 64 << 20

// maxCacheEntryBytes caps one cached response body. Responses are bounded
// by MaxResponseNodes anyway; the cap keeps a handful of worst-case graph
// renders from monopolising the budget.
const maxCacheEntryBytes = 1 << 20

// exploreAnnotator lets annotate work on both the real response writer
// (statusRecorder) and the buffered one the cached path records into.
type exploreAnnotator interface {
	setExplore(window string, paths int64, stopped string)
	setDAG(nodes int64)
}

// annotate attaches exploration details to the request's usage event.
func annotate(w http.ResponseWriter, qs QuerySpec, paths int64, stopped string) {
	if a, ok := w.(exploreAnnotator); ok {
		a.setExplore(qs.Start+" → "+qs.End, paths, stopped)
	}
}

// annotateDAG marks the usage event of a run the DAG substrate answered
// (countOnly requests), recording its distinct-status count. Cache
// replays never call it: dagAnswered counts computed runs only.
func annotateDAG(w http.ResponseWriter, sum coursenav.Summary) {
	if !sum.DAG {
		return
	}
	if a, ok := w.(exploreAnnotator); ok {
		a.setDAG(sum.Nodes)
	}
}

// canonicalize rewrites req into its canonical form: trimmed terms, course
// IDs resolved to the catalog's spelling (case-insensitively when
// unambiguous), and set-semantic course lists sorted and deduplicated.
// The SAME canonical request both derives the cache key and drives
// execution, so two requests that canonicalize equally are guaranteed to
// run identically — a key can never alias two requests with different
// behaviour. Degree-requirement group lists are resolved but neither
// sorted nor deduplicated: their courses fill counted slots, so list
// shape may be meaningful.
func canonicalize(nav *coursenav.Navigator, req *ExploreRequest) {
	req.Query.Start = strings.TrimSpace(req.Query.Start)
	req.Query.End = strings.TrimSpace(req.Query.End)
	req.Ranking = strings.TrimSpace(req.Ranking)
	canonCourseSet(nav, &req.Query.Completed)
	canonCourseSet(nav, &req.Query.Avoid)
	if req.Goal != nil {
		req.Goal.Expr = strings.TrimSpace(req.Goal.Expr)
		canonCourseSet(nav, &req.Goal.Courses)
		for i := range req.Goal.Degree {
			canonCourseList(nav, req.Goal.Degree[i].Courses)
		}
	}
	for i := range req.Weights {
		req.Weights[i].Ranking = strings.TrimSpace(req.Weights[i].Ranking)
	}
}

// canonCourseList trims and resolves course IDs in place. Unknown IDs are
// left as typed — they fail downstream with the usual unknown-course error,
// and error responses are never cached.
func canonCourseList(nav *coursenav.Navigator, ids []string) {
	for i, id := range ids {
		id = strings.TrimSpace(id)
		if c, ok := nav.CanonicalCourse(id); ok {
			id = c
		}
		ids[i] = id
	}
}

// canonCourseSet canonicalizes a course list with set semantics: resolved,
// sorted, deduplicated.
func canonCourseSet(nav *coursenav.Navigator, ids *[]string) {
	if len(*ids) == 0 {
		return
	}
	canonCourseList(nav, *ids)
	sort.Strings(*ids)
	out := (*ids)[:1]
	for _, id := range (*ids)[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	*ids = out
}

// exploreKey derives the cache key for a canonicalized request against
// one tenant's cache partition, or ok=false when that partition is
// disabled. Keys never collide across tenants because each tenant owns
// a separate Cache instance — the partition, not the key, carries the
// tenant.
func exploreKey(c *resultcache.Cache, gen uint64, endpoint string, req *ExploreRequest) (resultcache.Key, bool) {
	if c == nil {
		return resultcache.Key{}, false
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return resultcache.Key{}, false
	}
	return resultcache.KeyFor(gen, endpoint, blob), true
}

// runLimited runs an exploration under the two-level admission control
// (tenant quota, then the global cost-aware queue), shedding load when
// either refuses. It is the whole cached-path story when the tenant's
// cache partition is disabled.
func (s *Server) runLimited(t *tenantState, w http.ResponseWriter, r *http.Request, req *ExploreRequest, endpoint string, run http.HandlerFunc) {
	release, ok := s.admitExplore(t, w, r, req, endpoint)
	if !ok {
		return
	}
	defer release()
	run(w, r)
}

// bufferedResponse captures a handler's response so it can be both cached
// and delivered. Renders are bounded by MaxResponseNodes, so the buffer is
// small; errors and partial results buffer equally and are simply not
// cached.
type bufferedResponse struct {
	header   http.Header
	buf      bytes.Buffer
	status   int
	wrote    bool
	window   string
	paths    int64
	stopped  string
	dag      bool
	dagNodes int64
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: http.Header{}, status: http.StatusOK}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if !b.wrote {
		b.status = code
		b.wrote = true
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.wrote = true
	return b.buf.Write(p)
}

func (b *bufferedResponse) setExplore(window string, paths int64, stopped string) {
	b.window, b.paths, b.stopped = window, paths, stopped
}

func (b *bufferedResponse) setDAG(nodes int64) {
	b.dag, b.dagNodes = true, nodes
}

// deliver replays the buffered response onto the real writer, forwarding
// the usage annotations the handler recorded. The DAG marks are forwarded
// only for the computing request itself (how == "miss"): a coalesced
// follower shares the bytes but did not run the DAG engine.
func (b *bufferedResponse) deliver(w http.ResponseWriter, how string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.cache = how
		rec.window, rec.paths, rec.stopped = b.window, b.paths, b.stopped
		if how == "miss" && b.dag {
			rec.setDAG(b.dagNodes)
		}
	}
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	h.Set("X-Cache", how)
	w.WriteHeader(b.status)
	_, _ = w.Write(b.buf.Bytes())
}

// replay writes a cached entry: the stored body byte-for-byte, plus the
// usage annotations of the run that produced it.
func replay(w http.ResponseWriter, ent *resultcache.Entry, how string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.cache = how
		rec.window, rec.paths = ent.Window, ent.Paths
	}
	w.Header().Set("X-Cache", how)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ent.Body)
}

// serveCached is the non-streaming explore driver: replay a hit, coalesce
// with an identical in-flight miss, or run the exploration (buffered) and
// cache the result when it is a complete 200 within the entry cap. run
// receives a buffered writer; all its error paths buffer and deliver
// normally, they just never populate the cache.
//
// Brownout behaviour (stale-while-revalidate): while the service is
// degraded, a miss whose request was cached in the PREVIOUS snapshot
// generation is answered from that stale entry immediately — marked
// X-Cache: stale with "degraded":true in the envelope — and the fresh
// computation happens in the background when a slot is free, populating
// the live cache for the next request. A request shed by admission gets
// the same stale fallback before the error goes out: a slightly old
// answer beats a 429 for the paper's interactive workload, and staleness
// is bounded at one generation by the cache's construction.
func (s *Server) serveCached(t *tenantState, w http.ResponseWriter, r *http.Request, req *ExploreRequest, endpoint string, gen uint64, run http.HandlerFunc) {
	cache := t.resultCache()
	key, cacheable := exploreKey(cache, gen, endpoint, req)
	if !cacheable {
		s.runLimited(t, w, r, req, endpoint, run)
		return
	}
	if ent, ok := cache.Get(key); ok {
		replay(w, ent, "hit")
		return
	}
	if s.Brownout && s.degradedNow() {
		if ent, ok := cache.Stale(key); ok {
			replayStale(w, ent)
			s.revalidate(t, r, cache, key, run)
			return
		}
	}
	f, leader := cache.Join(key)
	if !leader {
		if ent := f.Wait(r.Context()); ent != nil {
			replay(w, ent, "coalesced")
			return
		}
		// The leader produced nothing cacheable (error, truncated run,
		// oversized render) or our client gave up: compute individually.
	}
	finished := false
	if leader {
		// A panicking handler must not leave followers blocked on the
		// flight: finish it empty on any non-normal exit.
		defer func() {
			if !finished {
				cache.Finish(key, f, nil)
			}
		}()
	}
	res, ok := s.admit(t, r.Context(), req, endpoint)
	if !ok {
		// Shed — but a stale entry, when one exists, turns the shed into a
		// served response: degraded beats denied.
		if s.Brownout {
			if ent, sok := cache.Stale(key); sok {
				annotateAdmission(w, res.outcome)
				replayStale(w, ent)
				return
			}
		}
		s.writeShed(t, w, res)
		return
	}
	annotateAdmission(w, res.outcome)
	defer res.release()
	bw := newBufferedResponse()
	run(bw, r)
	var ent *resultcache.Entry
	if bw.status == http.StatusOK && bw.stopped == "" && bw.buf.Len() <= maxCacheEntryBytes {
		ent = newEntry(bw.buf.Bytes(), bw.paths, bw.window)
	}
	if leader {
		cache.Finish(key, f, ent)
		finished = true
	} else if ent != nil {
		cache.Put(key, ent)
	}
	bw.deliver(w, "miss")
}

// degradedSuffix is spliced into a replayed body's top-level object when
// it is served stale, so clients can tell a brownout answer from a live
// one without parsing headers. Every cached body is a complete JSON
// object ending "}\n", so the splice point is the final close brace.
var degradedSuffix = []byte(`,"degraded":true`)

// injectDegraded returns body with "degraded":true added to its
// top-level object. The body is returned unchanged if no close brace is
// found (cannot happen for entries the server itself rendered).
func injectDegraded(body []byte) []byte {
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body)+len(degradedSuffix))
	out = append(out, body[:i]...)
	out = append(out, degradedSuffix...)
	out = append(out, body[i:]...)
	return out
}

// replayStale writes a previous-generation cache entry as a brownout
// response: X-Cache: stale, "degraded":true in the body, recorded in
// usage as a degraded stale serve.
func replayStale(w http.ResponseWriter, ent *resultcache.Entry) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.cache = "stale"
		rec.degraded = true
		rec.window, rec.paths = ent.Window, ent.Paths
	}
	w.Header().Set("X-Cache", "stale")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(injectDegraded(ent.Body))
}

// revalidate computes a fresh answer for a stale-served request in the
// background — the stale-while-revalidate half of brownout mode. It is
// strictly best-effort: it runs only when it can take a slot without
// queueing (degraded means slots are scarce) and when no identical
// computation is already in flight, and it gives up silently on any
// failure (the next request just misses again).
func (s *Server) revalidate(t *tenantState, r *http.Request, cache *resultcache.Cache, key resultcache.Key, run http.HandlerFunc) {
	f, leader := cache.Join(key)
	if !leader {
		return
	}
	release, ok := s.adm().TryAcquire()
	if !ok {
		cache.Finish(key, f, nil)
		return
	}
	// The request context dies when the handler returns; the background
	// run gets a fresh one bounded by runCtx's usual caps.
	bg := r.Clone(context.Background())
	go func() {
		defer release()
		finished := false
		defer func() {
			if p := recover(); p != nil {
				log.Printf("server: tenant %s: panic in background revalidation: %v", t.id, p)
			}
			if !finished {
				cache.Finish(key, f, nil)
			}
		}()
		bw := newBufferedResponse()
		run(bw, bg)
		var ent *resultcache.Entry
		if bw.status == http.StatusOK && bw.stopped == "" && bw.buf.Len() <= maxCacheEntryBytes {
			ent = newEntry(bw.buf.Bytes(), bw.paths, bw.window)
		}
		cache.Finish(key, f, ent)
		finished = true
	}()
}

// graphEntry renders the non-streaming explore envelope for a graph
// collected off a completed stream, for cache population. nil when the
// render fails or exceeds the entry cap.
func (s *Server) graphEntry(qs QuerySpec, sum coursenav.Summary, g *coursenav.Graph, paths int64) *resultcache.Entry {
	var buf bytes.Buffer
	if err := s.renderExploreBody(&buf, sum, g); err != nil || buf.Len() > maxCacheEntryBytes {
		return nil
	}
	return newEntry(buf.Bytes(), paths, qs.Start+" → "+qs.End)
}

// rankedEntry renders the non-streaming ranked response body for cache
// population from a completed ranked stream. The paths arrive in rank
// order, exactly as TopKCtx would return them.
func (s *Server) rankedEntry(qs QuerySpec, sum coursenav.Summary, paths []coursenav.Path) *resultcache.Entry {
	blob, err := json.Marshal(rankedResponse{Summary: toSummaryBody(sum), Paths: paths})
	if err != nil || len(blob)+1 > maxCacheEntryBytes {
		return nil
	}
	return newEntry(append(blob, '\n'), int64(len(paths)), qs.Start+" → "+qs.End)
}

// newEntry builds a result-cache entry around a copy of body cut to its
// exact length. The cache charges an entry len(Body)+256 bytes, while the
// bytes.Buffer or append a body is rendered in can hold up to twice its
// length in capacity — memory the charge would never see.
func newEntry(body []byte, paths int64, window string) *resultcache.Entry {
	return &resultcache.Entry{Body: bytes.Clone(body), Paths: paths, Window: window}
}
