// The serving pipeline: one canonical exploration run through the result
// cache, singleflight coalescing and two-level cost-aware admission,
// without an http.ResponseWriter in sight.
//
// runUnit is the pipeline's only implementation. Every caller derives
// its unit's key once (newUnit) and hands it over:
//
//   - serveCached (cache.go), the HTTP shell of the non-streaming explore
//     handlers: it adds stale-while-revalidate, the shed envelope and the
//     usage annotations, and runs the handler into a buffer as exec;
//   - revalidate (cache.go), brownout's background refresh, as a try unit
//     that never waits;
//   - the cohort planner's unit hooks (cohort.go), which replan each
//     member as units: every member is individually costed by the
//     admission estimator, individually time-bounded (unitCtx) and keyed
//     into the same result cache interactive traffic uses, so members
//     sharing a canonical sub-request coalesce with each other and with
//     live requests.
//
// Streams (serveStream, stream.go) never read the cache; they share the
// key, the admission gate and the publish of a complete run only.
package server

import (
	"context"

	"repro/internal/admission"
	"repro/internal/resultcache"
)

// unit is one canonicalized exploration on its way through the pipeline.
type unit struct {
	t   *tenantState
	req *ExploreRequest
	// key identifies the request in the tenant's cache partition; its
	// generation-free digest, with the tenant folded in, also keys the
	// admission estimator. keyed is false only when the request could not
	// be encoded: the unit then runs uncached and seed-priced.
	key   resultcache.Key
	keyed bool
	// cache is the tenant's partition, nil when disabled (or !keyed).
	cache *resultcache.Cache
	// try marks a unit that never waits: not on an identical in-flight
	// run, not in the admission queue (background revalidation).
	try bool
}

// newUnit derives req's key, encoding and hashing the request once. req
// must be canonical (canonicalize) and is not copied: the unit runs the
// very request its key was derived from.
func newUnit(t *tenantState, gen uint64, endpoint string, req *ExploreRequest) unit {
	u := unit{t: t, req: req}
	if u.key, u.keyed = exploreKey(gen, endpoint, req); u.keyed {
		u.cache = t.resultCache()
	}
	return u
}

// unitShedError reports a unit refused by admission. Cohort records it
// on the member and continues; the HTTP shell answers it (writeShed).
type unitShedError struct {
	res admitResult
}

func (e *unitShedError) Error() string {
	if e.res.tenantShed {
		return "unit shed: tenant concurrency quota exhausted"
	}
	return "unit shed: " + e.res.outcome.String()
}

// runUnit runs one unit through the serving pipeline:
//
//  1. cache Get — an identical completed unit replays instantly ("hit")
//  2. flight Join, atomically with step 1 (GetOrJoin) — an identical
//     in-flight unit is awaited ("coalesced");
//     a follower whose context ends first returns its error having run
//     nothing, and one whose leader published nothing computes itself
//  3. admission — the two-level gate an interactive request passes
//     (shed → *unitShedError; a caller that leaves while queued gets its
//     context's error, with nothing shed); outcome reports how it admitted
//  4. exec computes the unit; an entry it marks publishable goes to the
//     cache and the flight's followers ("miss")
//
// With the tenant's partition disabled, steps 1 and 2 and the publish are
// skipped; the unit still reports "miss". A try unit returns at once ("coalesced", no
// entry) when an identical run is in flight, and admits only onto a free
// tenant-quota slot and a free global slot.
//
// exec receives the caller's context and applies its own budget. It
// returns the unit's entry (nil when it has nothing to hand back),
// whether that entry may be published, and an error. A leader that
// publishes nothing — exec failed, panicked or was shed — finishes its
// flight empty in the one deferred cleanup below, so followers compute
// on their own rather than hang.
func (s *Server) runUnit(ctx context.Context, u unit, exec func(context.Context) (*resultcache.Entry, bool, error)) (ent *resultcache.Entry, how string, outcome admission.Outcome, err error) {
	var flight *resultcache.Flight
	leader := false
	if u.cache != nil {
		if ent, flight, leader = u.cache.GetOrJoin(u.key); ent != nil {
			return ent, "hit", admission.Admitted, nil
		}
		if !leader {
			if u.try {
				return nil, "coalesced", admission.Admitted, nil
			}
			if ent := flight.Wait(ctx); ent != nil {
				return ent, "coalesced", admission.Admitted, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, "", admission.Admitted, err
			}
		}
	}
	finished := false
	if leader {
		defer func() {
			if !finished {
				u.cache.Finish(u.key, flight, nil)
			}
		}()
	}
	res, ok := s.admit(ctx, u)
	if !ok {
		if res.outcome == admission.Canceled {
			// The caller left while queued: like a follower whose client
			// left, it ran nothing and there is no one to answer.
			return nil, "", res.outcome, ctx.Err()
		}
		return nil, "", res.outcome, &unitShedError{res: res}
	}
	defer res.release()
	ent, publish, err := exec(ctx)
	if err != nil {
		return nil, "", res.outcome, err
	}
	pub := ent
	if !publish {
		pub = nil
	}
	if leader {
		u.cache.Finish(u.key, flight, pub)
		finished = true
	} else if u.cache != nil && pub != nil {
		u.cache.Put(u.key, pub)
	}
	return ent, "miss", res.outcome, nil
}
