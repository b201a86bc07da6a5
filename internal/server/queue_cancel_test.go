package server

import (
	"context"
	"net/url"
	"testing"
	"time"
)

// TestQueuedClientLeavesWithoutShed: a request queued for a slot whose
// client leaves is no shed — no queue_timeout counted, no brownout
// latched (so later requests run unclamped and are never served stale)
// — and its usage event says the run was canceled, with no admission
// label. Both serving shells are covered: a buffered explore request
// (serveCached) and a stream (serveStream). A deadline that expires in
// the queue stays a queue_timeout (TestQueueTimeout,
// TestQueueTimeoutAnswers503).
func TestQueuedClientLeavesWithoutShed(t *testing.T) {
	for _, tc := range []struct {
		path, body string
	}{
		{"/api/v1/explore/deadline", cheapCountBody},
		{"/api/v1/explore/goal?stream=1", `{"query":{"start":"Fall 2013","end":"Spring 2014","maxPerTerm":1},"goal":{"courses":["COSI 21A"]}}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			s, ts := newV1Server(t)
			s.MaxConcurrent = 1
			release, ok := s.acquire()
			if !ok {
				t.Fatal("could not take the only slot")
			}
			defer release()

			ctx, cancel := context.WithCancel(context.Background())
			queued := postAsync(ctx, ts, tc.path, tc.body)
			waitFor(t, 2*time.Second, func() bool { return s.adm().Snapshot().Waiters == 1 }, "the request to queue")
			cancel()
			if got := <-queued; got.err == nil {
				t.Fatalf("the departed client got a response: %d %s", got.status, got.body)
			}
			u, err := url.Parse(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			var ev usageEventView
			waitFor(t, 2*time.Second, func() bool {
				for _, e := range s.Usage.Events() {
					if e.Endpoint == "POST "+u.Path {
						ev = usageEventView{e.Stopped, e.Admission, e.Cache}
						return true
					}
				}
				return false
			}, "the request's usage event")
			if ev.stopped != "canceled" || ev.admission != "" {
				t.Errorf("usage = %+v, want stopped canceled with no admission label", ev)
			}
			snap := s.adm().Snapshot()
			if snap.ShedTimeout != 0 || snap.ShedQueueFull != 0 || snap.ShedCostly != 0 {
				t.Errorf("admission counted a shed for the departed client: %+v", snap)
			}
			if snap.State == "degraded" {
				t.Errorf("state = %q: a departed client latched brownout", snap.State)
			}
			if snap.Waiters != 0 {
				t.Errorf("waiters = %d, want the departed client gone from the queue", snap.Waiters)
			}
		})
	}
}
