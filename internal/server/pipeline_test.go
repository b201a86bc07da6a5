package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cohort"
)

// A coalesced follower whose client leaves while the leader still queues
// for a slot returns having run nothing: no admission attempt, so no
// queue_timeout shed and no brownout latch, and its usage event says the
// run was canceled.
func TestCancelledFollowerDoesNotShed(t *testing.T) {
	s, ts := newV1Server(t)
	s.MaxConcurrent = 1
	release, ok := s.acquire()
	if !ok {
		t.Fatal("could not take the only slot")
	}
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	leader := postAsync(context.Background(), ts, "/api/v1/explore/deadline", cheapCountBody)
	waitFor(t, 2*time.Second, func() bool { return s.adm().Snapshot().Waiters == 1 }, "the leader to queue")

	ctx, cancel := context.WithCancel(context.Background())
	follower := postAsync(ctx, ts, "/api/v1/explore/deadline", cheapCountBody)
	waitFor(t, 2*time.Second, func() bool { return s.Cache.Stats().Coalesced == 1 }, "the follower to join the flight")
	cancel()
	if got := <-follower; got.err == nil {
		t.Fatalf("the cancelled client got a response: %+v", got)
	}
	var ev usageEventView
	waitFor(t, 2*time.Second, func() bool {
		evs := s.Usage.Events()
		for _, e := range evs {
			if e.Endpoint == "POST /api/v1/explore/deadline" {
				ev = usageEventView{e.Stopped, e.Admission, e.Cache}
				return true
			}
		}
		return false
	}, "the follower's usage event")
	if ev.stopped != "canceled" || ev.admission != "" || ev.cache != "" {
		t.Errorf("follower usage = %+v, want stopped canceled with no admission or cache disposition", ev)
	}
	snap := s.adm().Snapshot()
	if snap.ShedTimeout != 0 || snap.ShedQueueFull != 0 || snap.ShedCostly != 0 {
		t.Errorf("admission counted a shed for the departed follower: %+v", snap)
	}
	if snap.State != "pressured" {
		t.Errorf("state = %q, want pressured (the slot is held and the leader waits)", snap.State)
	}
	if snap.Waiters != 1 {
		t.Errorf("waiters = %d, want only the leader", snap.Waiters)
	}

	release()
	released = true
	if got := <-leader; got.err != nil || got.status != http.StatusOK || got.header.Get("X-Cache") != "miss" {
		t.Errorf("leader = %d X-Cache %q (err %v), want a 200 miss once the slot frees", got.status, got.header.Get("X-Cache"), got.err)
	}
}

type usageEventView struct{ stopped, admission, cache string }

// reply is a response read by postAsync.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// postAsync posts body to path from its own goroutine, so the test's
// goroutine can drive the server meanwhile.
func postAsync(ctx context.Context, ts *httptest.Server, path, body string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			out <- reply{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		out <- reply{status: resp.StatusCode, header: resp.Header, body: b, err: err}
	}()
	return out
}

// leaderFixture is a server with a cohort planner whose base-catalog
// counting unit shares its key with an interactive countOnly goal
// request (the cohort-of-1 invariant), plus that request's body and the
// goal-path count both must report. shared counts on the substrate
// through p's sharedUnit, wired as a cohort job wires it.
type leaderFixture struct {
	s      *Server
	ts     *httptest.Server
	p      *serverPlanner
	shared *cohort.SharedPlanner
	m      cohort.Member
	end    string
	body   string
	want   int64
}

func newLeaderFixture(t *testing.T) *leaderFixture {
	t.Helper()
	s, ts := newV1Server(t)
	nav := s.Navigator()
	f := &leaderFixture{
		s: s, ts: ts,
		p: &serverPlanner{
			s: s, t: s.defaultTenant(), gen: s.Generation(),
			baseNav: nav, scenNav: nav, scenario: &cohort.Scenario{},
			goal:     &GoalSpec{Courses: []string{"COSI 21A"}},
			template: QuerySpec{MaxPerTerm: 2},
		},
		m:    cohort.Member{Student: "S1", Completed: []string{"COSI 11A"}, Start: "Fall 2013"},
		end:  "Fall 2015",
		body: `{"query":{"completed":["COSI 11A"],"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2,"countOnly":true},"goal":{"courses":["COSI 21A"]}}`,
	}
	f.shared = &cohort.SharedPlanner{
		Base:     nav,
		Scenario: nav,
		MakeGoal: func(nv *coursenav.Navigator) (coursenav.Goal, error) {
			return buildGoal(nv, *f.p.goal)
		},
		Query: s.query(f.p.template, nil),
		Unit:  f.p.sharedUnit,
	}
	goal, err := nav.GoalCourses("COSI 21A")
	if err != nil {
		t.Fatal(err)
	}
	req := f.p.unitReq(f.m, f.end, true)
	sum, err := nav.GoalPathsCount(s.query(req.Query, nil), goal)
	if err != nil {
		t.Fatal(err)
	}
	f.want = sum.GoalPaths
	return f
}

// joined waits until a follower has joined the one flight in progress.
func (f *leaderFixture) joined(t *testing.T) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool { return f.s.Cache.Stats().Coalesced == 1 }, "the follower to join the flight")
}

// TestLeaderFailureReleasesFollowers exercises runUnit's one leader
// cleanup: a leader whose run panics or fails, HTTP request or cohort
// unit alike, finishes its flight empty, so the follower waiting on it
// wakes and computes on its own, and a panic still propagates.
func TestLeaderFailureReleasesFollowers(t *testing.T) {
	errLeader := errors.New("leader failed")

	// A cohort unit leads and fails; an HTTP request follows.
	for _, tc := range []struct {
		name string
		fail func() (cohort.SharedCount, error)
	}{
		{"unit panics", func() (cohort.SharedCount, error) { panic("leader boom") }},
		{"unit errors", func() (cohort.SharedCount, error) { return cohort.SharedCount{}, errLeader }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newLeaderFixture(t)
			started, gate := make(chan struct{}), make(chan struct{})
			// Open the gate on any exit, so a failed wait cannot leave the
			// leader blocked and the test server's Close waiting on it.
			open := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(open)
			type outcome struct {
				panicked interface{}
				err      error
			}
			leader := make(chan outcome, 1)
			go func() {
				var out outcome
				defer func() {
					out.panicked = recover()
					leader <- out
				}()
				_, out.err = f.p.sharedUnit(context.Background(), f.m, f.end, cohort.Variant{Kind: cohort.KindBase},
					func(context.Context) (cohort.SharedCount, error) {
						close(started)
						<-gate
						return tc.fail()
					})
			}()
			<-started
			follower := postAsync(context.Background(), f.ts, "/api/v1/explore/goal", f.body)
			f.joined(t)
			open()
			out := <-leader
			if tc.name == "unit panics" && out.panicked != "leader boom" {
				t.Errorf("leader recovered %v, want the exec's panic to propagate", out.panicked)
			}
			if tc.name == "unit errors" && !errors.Is(out.err, errLeader) {
				t.Errorf("leader returned %v, want the exec's error", out.err)
			}
			got := <-follower
			if got.err != nil || got.status != http.StatusOK || got.header.Get("X-Cache") != "miss" {
				t.Fatalf("follower = %d X-Cache %q (err %v), want a 200 it computed itself (%s)",
					got.status, got.header.Get("X-Cache"), got.err, got.body)
			}
			var env struct {
				Summary summaryBody `json:"summary"`
			}
			if err := json.Unmarshal(got.body, &env); err != nil || env.Summary.GoalPaths != f.want {
				t.Errorf("follower body %s (err %v), want goalPaths %d", got.body, err, f.want)
			}
			if resp, _ := post(t, f.ts, "/api/v1/explore/goal", f.body); resp.Header.Get("X-Cache") != "hit" {
				t.Errorf("the follower's answer was not cached: X-Cache %q", resp.Header.Get("X-Cache"))
			}
		})
	}

	// An HTTP request leads and fails; a cohort unit follows.
	for _, tc := range []struct {
		name       string
		fail       func(w http.ResponseWriter)
		wantStatus int
	}{
		{"request panics", func(http.ResponseWriter) { panic("leader boom") }, http.StatusInternalServerError},
		{"request errors", func(w http.ResponseWriter) {
			writeErr(w, http.StatusServiceUnavailable, CodeInternal, "leader failed")
		}, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newLeaderFixture(t)
			started, gate := make(chan struct{}), make(chan struct{})
			// Open the gate on any exit, so a failed wait cannot leave the
			// leader blocked and the test server's Close waiting on it.
			open := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(open)
			f.s.mux.HandleFunc("POST /test/leader", f.s.withDefault(func(tn *tenantState, w http.ResponseWriter, r *http.Request) {
				req := f.p.unitReq(f.m, f.end, true)
				f.s.serveCached(tn, w, r, req, "goal", tn.gen(), func(w http.ResponseWriter, r *http.Request) {
					close(started)
					<-gate
					tc.fail(w)
				})
			}))
			leader := postAsync(context.Background(), f.ts, "/test/leader", "")
			<-started
			type result struct {
				res cohort.CountResult
				err error
			}
			follower := make(chan result, 1)
			go func() {
				res, err := f.shared.Count(context.Background(), f.m, f.end, cohort.Variant{Kind: cohort.KindBase})
				follower <- result{res, err}
			}()
			f.joined(t)
			open()
			got := <-leader
			if got.err != nil || got.status != tc.wantStatus {
				t.Errorf("leader status %d (%s), want %d", got.status, got.body, tc.wantStatus)
			}
			var env envelope
			if err := json.Unmarshal(got.body, &env); err != nil || env.Error.Code != CodeInternal {
				t.Errorf("leader body %s (err %v), want the internal error envelope", got.body, err)
			}
			fr := <-follower
			if fr.err != nil || fr.res.Reused || fr.res.GoalPaths != f.want {
				t.Errorf("follower = %+v (err %v), want goalPaths %d computed on its own", fr.res, fr.err, f.want)
			}
			if resp, _ := post(t, f.ts, "/api/v1/explore/goal", f.body); resp.Header.Get("X-Cache") != "hit" {
				t.Errorf("the follower's answer was not cached: X-Cache %q", resp.Header.Get("X-Cache"))
			}
		})
	}
}

// With the tenant's cache partition disabled every cohort unit computes:
// none is reported as reused, so the job's coalesced tally stays zero
// even when the identical job runs again.
func TestCohortCacheDisabledReusesNothing(t *testing.T) {
	s, ts := newV1Server(t)
	s.Cache = nil
	const body = `{
		"synthesize":{"n":5,"seed":3},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]},
		"baseline":true
	}`
	for run := 0; run < 2; run++ {
		resp, b := post(t, ts, "/api/v1/cohort", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %s", run, resp.StatusCode, b)
		}
		_, sum := cohortLines(t, b)
		if sum.Units == 0 || sum.Coalesced != 0 {
			t.Errorf("run %d: coalesced %d of %d units on a cache-disabled server, want 0", run, sum.Coalesced, sum.Units)
		}
	}
}

// A brownout revalidation is a try unit: it needs a free slot in the
// tenant's quota as well as in the global pool, so a degraded tenant at
// its quota is served stale without a revalidation running past the
// quota. Once the quota slot frees, the next stale serve revalidates.
func TestBrownoutRevalidationRespectsTenantQuota(t *testing.T) {
	s := New(navFromDump(t, reloadDumpSmall))
	s.MaxConcurrent = 2
	s.TenantMaxConcurrent = 1
	s.BrownoutHold = time.Minute
	s.Loader = func() (*coursenav.Navigator, *coursenav.ImportReport, error) {
		return navFromDump(t, reloadDumpSmall), nil, nil
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	body := `{"query":{"start":"Fall 2012","end":"Fall 2013","maxPerTerm":1}}`
	if resp, b := post(t, ts, "/api/v1/explore/deadline", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: %d (%s)", resp.StatusCode, b)
	}
	if resp, b := postReload(t, ts); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d (%s)", resp.StatusCode, b)
	}

	// Latch the degraded state with both global slots held, then free one:
	// only the tenant quota can stop a revalidation now.
	rel1, _ := s.acquire()
	rel2, _ := s.acquire()
	defer rel2()
	if resp, _ := post(t, ts, "/api/v1/explore/deadline", costlyBody); resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("costly probe was not shed: %d", resp.StatusCode)
	}
	rel1()
	if !s.degradedNow() {
		t.Fatal("shed did not latch the degraded state")
	}
	relQuota, ok := s.defaultTenant().acquireQuota()
	if !ok {
		t.Fatal("could not take the tenant's only quota slot")
	}

	staleServe := func() {
		t.Helper()
		if resp, b := post(t, ts, "/api/v1/explore/deadline", body); resp.Header.Get("X-Cache") != "stale" {
			t.Fatalf("degraded request: %d X-Cache %q (%s), want a stale serve", resp.StatusCode, resp.Header.Get("X-Cache"), b)
		}
	}
	staleServe()
	// The priming request and the costly probe missed; the third miss is
	// the revalidation's own probe of the live cache.
	waitFor(t, 2*time.Second, func() bool { return s.Cache.Stats().Misses >= 3 }, "the revalidation to probe the cache")
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if n := s.Cache.Stats().Entries; n != 0 {
			t.Fatalf("a revalidation ran past the tenant quota: %d live entries", n)
		}
	}

	relQuota()
	staleServe()
	waitFor(t, 2*time.Second, func() bool { return s.Cache.Stats().Entries == 1 }, "the revalidation to refresh the entry")
}
