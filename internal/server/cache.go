// Result caching for the explore endpoints: the HTTP shell over the
// serving pipeline (unit.go).
//
// The interactive workload the paper targets (§5: a student tweaks one knob
// and re-explores) is dominated by repeated, semantically identical
// requests against a catalog that changes only at reload time. Every
// non-streaming explore response is therefore cached under
// (catalog snapshot generation, canonicalized request, endpoint) and
// replayed byte-for-byte on a hit; concurrent identical misses coalesce
// into one exploration via the cache's flight mechanism. serveCached runs
// each request as a unit through runUnit, with the handler writing into a
// buffer as the unit's exec, and keeps only what is HTTP-specific:
// stale-while-revalidate, the shed envelope and the usage annotations.
// Streaming requests bypass the cache on the read side but populate it
// when the run completes cleanly and the rendered result fits the
// per-entry cap (serveStream, stream.go).
//
// Cache hits skip admission entirely (a replay is a memcpy, not an
// exploration); misses acquire a slot, so load shedding still protects
// the engines. The X-Cache response header reports
// hit/coalesced/miss/stale on every response of a cache-enabled tenant;
// responses are otherwise byte-identical to an uncached server's (tests
// assert this per endpoint).
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
	"log"
	"net/http"
	"sort"
	"strings"

	"repro"
	"repro/internal/explore"
	"repro/internal/resultcache"
	"repro/internal/usage"
)

// DefaultCacheBytes is the result cache's byte budget (charged by rendered
// response size).
const DefaultCacheBytes = 64 << 20

// maxCacheEntryBytes caps one cached response body. Responses are bounded
// by MaxResponseNodes anyway; the cap keeps a handful of worst-case graph
// renders from monopolising the budget.
const maxCacheEntryBytes = 1 << 20

// usageEvent returns the usage event w carries for handlers to annotate:
// the live request's (statusRecorder) or a buffered run's
// (bufferedResponse, forwarded on delivery); nil for any other writer.
func usageEvent(w http.ResponseWriter) *usage.Event {
	switch w := w.(type) {
	case *statusRecorder:
		return &w.ev
	case *bufferedResponse:
		return &w.ev
	}
	return nil
}

// annotate attaches exploration details to the request's usage event.
func annotate(w http.ResponseWriter, qs QuerySpec, paths int64, stopped string) {
	if ev := usageEvent(w); ev != nil {
		ev.Window, ev.Paths, ev.Stopped = qs.Start+" → "+qs.End, paths, stopped
	}
}

// annotateDAG marks the usage event of a run the DAG substrate answered
// (countOnly requests), recording its distinct-status count. Cache
// replays never call it: dagAnswered counts computed runs only.
func annotateDAG(w http.ResponseWriter, sum coursenav.Summary) {
	if ev := usageEvent(w); ev != nil && sum.DAG {
		ev.DAG, ev.DAGNodes = true, sum.Nodes
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

// exploreKey derives a canonicalized request's cache key under snapshot
// generation gen: the request is encoded and hashed with its endpoint
// once, and the same digest keys the admission estimator (admit). ok is
// false when the request cannot be encoded. Keys never collide across
// tenants because each tenant owns a separate Cache instance — the
// partition, not the key, carries the tenant.
func exploreKey(gen uint64, endpoint string, req *ExploreRequest) (resultcache.Key, bool) {
	var scratch [512]byte
	blob, err := appendExploreRequest(scratch[:0], req)
	if err != nil {
		return resultcache.Key{}, false
	}
	return resultcache.KeyFor(gen, endpoint, blob), true
}

// bufferedResponse captures a handler's response so it can be both cached
// and delivered, with the usage annotations the handler made. A rendered
// body is adopted, not copied (respond); errors and partial results
// buffer equally and are simply not cached.
type bufferedResponse struct {
	header http.Header
	body   []byte
	// rb is the pooled render buffer body was adopted from, returned by
	// release once the body is delivered; nil for a written body.
	rb     *renderBuf
	status int
	wrote  bool
	ev     usage.Event
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
	b.body = append(b.body, p...)
	return len(p), nil
}

// adopt takes a rendered 200 body, the handler's whole response,
// without copying it.
func (b *bufferedResponse) adopt(rb *renderBuf) {
	b.WriteHeader(http.StatusOK)
	b.body, b.rb = rb.b, rb
}

// release returns an adopted render buffer to the pool; the body must
// not be used afterwards.
func (b *bufferedResponse) release() {
	b.rb.release()
	b.body, b.rb = nil, nil
}

// runBuffered runs an explore handler into a fresh bufferedResponse and
// returns it with the entry to publish: the body of a complete 200 within
// the entry cap, else nil.
func runBuffered(run http.HandlerFunc, r *http.Request) (*bufferedResponse, *resultcache.Entry) {
	b := &bufferedResponse{header: http.Header{}, status: http.StatusOK}
	run(b, r)
	if b.status != http.StatusOK || b.ev.Stopped != "" || len(b.body) > maxCacheEntryBytes {
		return b, nil
	}
	return b, newEntry(b.body, b.ev.Paths, b.ev.Window)
}

// deliver writes the buffered response of the run this request computed
// onto the real writer, forwarding the usage annotations the handler
// made. how is the cache disposition: "miss", or "" — no X-Cache header —
// when the tenant's partition is disabled.
func (b *bufferedResponse) deliver(w http.ResponseWriter, how string) {
	if ev := usageEvent(w); ev != nil {
		ev.Cache = how
		ev.Window, ev.Paths, ev.Stopped = b.ev.Window, b.ev.Paths, b.ev.Stopped
		ev.DAG, ev.DAGNodes = b.ev.DAG, b.ev.DAGNodes
	}
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	if how != "" {
		h.Set("X-Cache", how)
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body)
}

// replay writes a cached entry: the stored body byte-for-byte, plus the
// usage annotations of the run that produced it.
func replay(w http.ResponseWriter, ent *resultcache.Entry, how string) {
	if ev := usageEvent(w); ev != nil {
		ev.Cache = how
		ev.Window, ev.Paths = ent.Window, ent.Paths
	}
	w.Header().Set("X-Cache", how)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ent.Body)
}

// serveCached is the HTTP shell over runUnit for a non-streaming explore
// request: it replays a hit or a coalesced entry, delivers the buffered
// response of a run it computed, and answers a shed. run writes the
// response; its error paths buffer and deliver normally, they just never
// populate the cache.
//
// Brownout behaviour (stale-while-revalidate): while the service is
// degraded, a request with no live entry whose answer was cached in the
// PREVIOUS snapshot generation is answered from that stale entry at once
// — marked X-Cache: stale with "degraded":true in the envelope — and
// revalidated in the background, populating the live cache for the next
// request. A request shed by admission gets the same stale fallback
// before the error goes out: a slightly old answer beats a 429 for the
// paper's interactive workload, and staleness is bounded at one
// generation by the cache's construction.
func (s *Server) serveCached(t *tenantState, w http.ResponseWriter, r *http.Request, req *ExploreRequest, endpoint string, gen uint64, run http.HandlerFunc) {
	u := newUnit(t, gen, endpoint, req)
	// Stale yields to a live entry, so the hit below is never shadowed.
	if u.cache != nil && s.degradedNow() {
		if ent, ok := u.cache.Stale(u.key); ok {
			replayStale(w, ent)
			s.revalidate(u, r, run)
			return
		}
	}
	var bw *bufferedResponse
	ent, how, outcome, err := s.runUnit(r.Context(), u, func(context.Context) (*resultcache.Entry, bool, error) {
		var ent *resultcache.Entry
		bw, ent = runBuffered(run, r)
		return ent, ent != nil, nil
	})
	switch err := err.(type) {
	case nil:
		if bw == nil {
			replay(w, ent, how)
			return
		}
		annotateAdmission(w, outcome)
		if u.cache == nil {
			how = "" // a disabled partition reports no disposition
		}
		bw.deliver(w, how)
		bw.release()
	case *unitShedError:
		// Shed — but a stale entry, when one exists, turns the shed into a
		// served response: degraded beats denied.
		if u.cache != nil && s.Brownout {
			if ent, ok := u.cache.Stale(u.key); ok {
				annotateAdmission(w, err.res.outcome)
				replayStale(w, ent)
				return
			}
		}
		s.writeShed(t, w, err.res)
	default:
		// A coalesced follower whose client left before the run finished:
		// it ran nothing and there is no one to answer.
		annotate(w, req.Query, 0, explore.StopCanceled)
	}
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
	if ev := usageEvent(w); ev != nil {
		ev.Cache, ev.Degraded = "stale", true
		ev.Window, ev.Paths = ent.Window, ent.Paths
	}
	w.Header().Set("X-Cache", "stale")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(injectDegraded(ent.Body))
}

// revalidate computes a fresh answer for a stale-served request in the
// background — the stale-while-revalidate half of brownout mode — as a
// try unit: it gives up at once when an identical run is in flight or
// when the tenant quota or the global pool has no free slot (degraded
// means slots are scarce; it never queues), and silently on any failure
// (the next request just misses again).
func (s *Server) revalidate(u unit, r *http.Request, run http.HandlerFunc) {
	// The request context dies when the handler returns; the background
	// run gets a fresh one bounded by runCtx's usual caps.
	bg := r.Clone(context.Background())
	u.try = true
	go func() {
		defer func() {
			if p := recover(); p != nil {
				log.Printf("server: tenant %s: panic in background revalidation: %v", u.t.id, p)
			}
		}()
		s.runUnit(bg.Context(), u, func(context.Context) (*resultcache.Entry, bool, error) {
			bw, ent := runBuffered(run, bg)
			bw.release()
			return ent, ent != nil, nil
		})
	}()
}

// graphEntry renders the non-streaming explore envelope for a graph
// collected off a completed stream, for cache population. nil when the
// render fails or exceeds the entry cap.
func (s *Server) graphEntry(qs QuerySpec, sum coursenav.Summary, g *coursenav.Graph, paths int64) *resultcache.Entry {
	rb, err := s.renderExploreBody(sum, g)
	if err != nil {
		return nil
	}
	defer rb.release()
	if len(rb.b) > maxCacheEntryBytes {
		return nil
	}
	return newEntry(rb.b, paths, qs.Start+" → "+qs.End)
}

// rankedEntry renders the non-streaming ranked response body for cache
// population from a completed ranked stream. The paths arrive in rank
// order, exactly as TopKCtx would return them.
func (s *Server) rankedEntry(qs QuerySpec, sum coursenav.Summary, paths []coursenav.Path) *resultcache.Entry {
	rb := newRenderBuf()
	defer rb.release()
	var err error
	if rb.b, err = appendRanked(rb.b, rankedResponse{Summary: toSummaryBody(sum), Paths: paths}); err != nil || len(rb.b) > maxCacheEntryBytes {
		return nil
	}
	return newEntry(rb.b, int64(len(paths)), qs.Start+" → "+qs.End)
}

// newEntry builds a result-cache entry around a copy of body cut to its
// exact length. The cache charges an entry len(Body)+256 bytes, while the
// bytes.Buffer or append a body is rendered in can hold up to twice its
// length in capacity — memory the charge would never see.
func newEntry(body []byte, paths int64, window string) *resultcache.Entry {
	return &resultcache.Entry{Body: bytes.Clone(body), Paths: paths, Window: window}
}
