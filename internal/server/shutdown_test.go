// Graceful shutdown under load: in-flight requests (streaming and
// buffered alike) drain to completion, new connections are refused, and
// no goroutines are left behind. Runs race-clean.
package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

func TestShutdownUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	nav, _ := coursenav.Brandeis()
	s := New(nav)
	s.MaxConcurrent = 2               // small pool: some of the burst queues
	s.QueueTimeout = 30 * time.Second // queued requests must drain, not deadline, under a loaded test host
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Count requests the server has started reading (a keep-alive reuse
	// counts again), so the drain starts only once the whole burst is in.
	var started atomic.Int32
	hs := &http.Server{Handler: s, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			started.Add(1)
		}
	}}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{}}
	type reply struct {
		status  int
		body    string
		stream  bool
		failure error
	}
	const burst = 8
	results := make(chan reply, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		stream := i%2 == 0
		path := "/api/v1/explore/deadline"
		if stream {
			path += "?stream=1"
		}
		wg.Add(1)
		go func(stream bool) {
			defer wg.Done()
			resp, err := client.Post(base+path, "application/json",
				strings.NewReader(`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":2}}`))
			if err != nil {
				results <- reply{failure: err}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				results <- reply{failure: err}
				return
			}
			results <- reply{status: resp.StatusCode, body: string(body), stream: stream}
		}(stream)
	}
	// Let the burst reach the server before the drain starts: a request
	// still dialling when the listener closes is refused, not drained.
	waitFor(t, 2*time.Second, func() bool { return started.Load() >= burst }, "the burst to reach the server")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	wg.Wait()
	close(results)
	for got := range results {
		if got.failure != nil {
			t.Errorf("in-flight request failed during drain: %v", got.failure)
			continue
		}
		if got.status != http.StatusOK {
			t.Errorf("in-flight request finished %d during drain (%s)", got.status, got.body)
			continue
		}
		// Streams drained to their trailing summary — never cut mid-way.
		if got.stream && !strings.Contains(got.body, `"summary"`) {
			t.Errorf("drained stream has no trailing summary: %q", got.body)
		}
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// The listener is closed: new connections are refused.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Error("post-shutdown connection was accepted")
	}
	client.CloseIdleConnections()

	// No goroutine leaks: everything the burst spawned winds down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after shutdown: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
