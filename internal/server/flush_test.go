package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// flushWriter is a ResponseWriter that records how many body bytes had
// been written at each Flush. When gate is set, the first Flush whose
// body gate accepts parks until the test closes release: the goroutine
// that flushed is then provably stopped at that point. The stream writer
// flushes the first and the terminal record on the producer's goroutine,
// so parking there stops the run.
type flushWriter struct {
	mu      sync.Mutex
	header  http.Header
	status  int
	buf     bytes.Buffer
	flushes []int
	gate    func(body []byte) bool
	gated   bool
	parked  chan struct{}
	release chan struct{}
}

func newFlushWriter(gate func(body []byte) bool) *flushWriter {
	return &flushWriter{
		header:  make(http.Header),
		gate:    gate,
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (f *flushWriter) Header() http.Header { return f.header }

func (f *flushWriter) WriteHeader(code int) {
	f.mu.Lock()
	f.status = code
	f.mu.Unlock()
}

func (f *flushWriter) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(b)
}

func (f *flushWriter) Flush() {
	f.mu.Lock()
	f.flushes = append(f.flushes, f.buf.Len())
	park := f.gate != nil && !f.gated && f.gate(f.buf.Bytes())
	f.gated = f.gated || park
	f.mu.Unlock()
	if park {
		close(f.parked)
		<-f.release
	}
}

// snapshot returns a copy of the body written so far and the body
// length at each flush.
func (f *flushWriter) snapshot() ([]byte, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf.Bytes()...), append([]int(nil), f.flushes...)
}

// lines counts the complete NDJSON lines in body.
func lines(body []byte) int { return bytes.Count(body, []byte{'\n'}) }

// lastLine returns body's last complete line.
func lastLine(body []byte) []byte {
	body = bytes.TrimSuffix(body, []byte{'\n'})
	return body[bytes.LastIndexByte(body, '\n')+1:]
}

// serveParked serves req on fw in the background, waits until fw's gate
// parks a Flush and checks that the handler is still running then. It
// returns the body as of the parked flush and a function that releases
// the gate and waits for the handler to return.
func serveParked(t *testing.T, s *Server, fw *flushWriter, req *http.Request) ([]byte, func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(fw, req)
	}()
	select {
	case <-fw.parked:
	case <-done:
		t.Fatal("handler finished without a flush the gate accepts")
	case <-time.After(10 * time.Second):
		t.Fatal("no flush the gate accepts within 10s")
	}
	select {
	case <-done:
		t.Fatal("handler finished while its flush was parked: the flush did not come from the producer")
	default:
	}
	body, _ := fw.snapshot()
	return body, func() {
		close(fw.release)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler did not finish after release")
		}
	}
}

// firstLine gates the flush that covers the stream's first record.
func firstLine(body []byte) bool { return lines(body) >= 1 }

// TestStreamFirstRecordFlushedBeforeCompletion: the first path record of
// an explore stream is flushed, not only written, while the exploration
// is still running, and before the next record is written.
func TestStreamFirstRecordFlushedBeforeCompletion(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	fw := newFlushWriter(firstLine)
	req := httptest.NewRequest("POST", "/api/v1/explore/goal?stream=1", strings.NewReader(goalStreamBody))
	atFlush, finish := serveParked(t, s, fw, req)
	if n := lines(atFlush); n != 1 || !bytes.HasPrefix(atFlush, []byte(`{"path":`)) {
		t.Fatalf("first flush covered %d lines, want exactly the first path record: %s", n, atFlush)
	}
	finish()

	body, flushes := fw.snapshot()
	if fw.status != http.StatusOK {
		t.Errorf("status = %d, want 200", fw.status)
	}
	paths, sum := splitStream(t, body)
	if len(paths) < 2 || int64(len(paths)) != sum.Paths {
		t.Fatalf("stream delivered %d paths, summary.paths = %d; want ≥ 2", len(paths), sum.Paths)
	}
	if flushes[0] != len(atFlush) || flushes[len(flushes)-1] != len(body) {
		t.Errorf("flushes at %v of %d bytes: want the first record alone first and the whole body last", flushes, len(body))
	}
}

// TestCohortFirstRecordBeforeCompletion: a cohort job's first member
// record is written and flushed while the job is still running.
func TestCohortFirstRecordBeforeCompletion(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	fw := newFlushWriter(firstLine)
	const body = `{
		"synthesize":{"n":40,"seed":5},
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]},
		"baseline":true
	}`
	req := httptest.NewRequest("POST", "/api/v1/cohort", strings.NewReader(body))
	atFlush, finish := serveParked(t, s, fw, req)
	if n := lines(atFlush); n != 1 || !bytes.HasPrefix(atFlush, []byte(`{"member":`)) {
		t.Fatalf("first flush covered %d lines, want exactly the first member record: %s", n, atFlush)
	}
	finish()

	got, flushes := fw.snapshot()
	members, sum := cohortLines(t, got)
	if len(members) != 40 || sum.Members != 40 || sum.Errors != 0 {
		t.Fatalf("job streamed %d members, summary %+v", len(members), sum)
	}
	if flushes[len(flushes)-1] != len(got) {
		t.Errorf("last flush at %d of %d bytes: the summary record was not flushed by the stream", flushes[len(flushes)-1], len(got))
	}
}

// TestStreamTerminalFlushedBeforeCacheRender: the summary record of a
// complete explore stream is flushed by the stream writer itself, on the
// handler's goroutine, before the handler renders and publishes the
// stream's cache entry.
func TestStreamTerminalFlushedBeforeCacheRender(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	fw := newFlushWriter(func(body []byte) bool {
		return bytes.HasPrefix(lastLine(body), []byte(`{"summary":`))
	})
	req := httptest.NewRequest("POST", "/api/v1/explore/goal?stream=1", strings.NewReader(goalStreamBody))
	atFlush, finish := serveParked(t, s, fw, req)
	if st := s.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries while the summary's flush is parked, want 0", st.Entries)
	}
	finish()
	body, _ := fw.snapshot()
	if !bytes.Equal(atFlush, body) {
		t.Errorf("the summary's flush covered %d of %d bytes: records followed the terminal record", len(atFlush), len(body))
	}
	if st := s.Cache.Stats(); st.Entries != 1 {
		t.Errorf("cache holds %d entries after the stream, want its 1 (the render the flush precedes)", st.Entries)
	}
}

// TestStreamFlushesPendingRecordWhileProducerStalls: a record written
// less than streamFlushDelay after the last flush is left pending, and
// the flush timer delivers it while the producer writes nothing more.
func TestStreamFlushesPendingRecordWhileProducerStalls(t *testing.T) {
	fw := newFlushWriter(nil)
	sw := (&Server{}).newStreamWriter(fw)
	defer sw.close()
	rec := []byte(`{"path":{}}` + "\n")
	if err := sw.record(rec, nil); err != nil {
		t.Fatal(err)
	}
	if _, flushes := fw.snapshot(); len(flushes) != 1 {
		t.Fatalf("first record: %d flushes, want it flushed at once", len(flushes))
	}
	// Write until a record stays pending: one written within
	// streamFlushDelay of the last flush is not flushed by its writer.
	var written int
	var pendingAt time.Time
	for i := 0; i < 1000 && pendingAt.IsZero(); i++ {
		_, before := fw.snapshot()
		if err := sw.record(rec, nil); err != nil {
			t.Fatal(err)
		}
		body, after := fw.snapshot()
		if len(after) == len(before) {
			written, pendingAt = len(body), time.Now()
		}
	}
	if pendingAt.IsZero() {
		t.Fatal("every record was flushed by its writer; none was left pending")
	}
	// The producer is stalled from here on: the flush must come from the
	// timer. The bound is streamFlushDelay; the slack is for loaded CI.
	const slack = 2 * time.Second
	for {
		if _, flushes := fw.snapshot(); flushes[len(flushes)-1] == written {
			t.Logf("pending record flushed %v after it was written", time.Since(pendingAt))
			return
		}
		if time.Since(pendingAt) > streamFlushDelay+slack {
			t.Fatalf("pending record not flushed within %v while the producer stalled", streamFlushDelay+slack)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStreamCloseStopsFlushTimer: once close returns, the flush timer no
// longer touches the response, even with a record pending.
func TestStreamCloseStopsFlushTimer(t *testing.T) {
	rec := []byte(`{"path":{}}` + "\n")
	for attempt := 0; attempt < 100; attempt++ {
		fw := newFlushWriter(nil)
		sw := (&Server{}).newStreamWriter(fw)
		for i := 0; i < 2; i++ {
			if err := sw.record(rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		sw.close()
		sw.mu.Lock()
		pending := sw.pending
		sw.mu.Unlock()
		if !pending {
			continue // the second record was flushed before close; retry
		}
		_, before := fw.snapshot()
		time.Sleep(10 * streamFlushDelay)
		if _, after := fw.snapshot(); len(after) != len(before) {
			t.Fatalf("%d flushes after close, want none", len(after)-len(before))
		}
		return
	}
	t.Fatal("no attempt left a record pending at close")
}

// TestCohortFlushesAtMostOncePerMillisecond: a 200-member job flushes its
// first and last records at once and the rest at most once per
// streamFlushDelay — at most 2 + (its duration in ms) flushes, where a
// flush per record would make 201.
func TestCohortFlushesAtMostOncePerMillisecond(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	fw := newFlushWriter(nil)
	const body = `{
		"synthesize":{"n":200,"seed":11},
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]}
	}`
	req := httptest.NewRequest("POST", "/api/v1/cohort", strings.NewReader(body))
	began := time.Now()
	s.ServeHTTP(fw, req)
	took := time.Since(began)

	got, flushes := fw.snapshot()
	members, sum := cohortLines(t, got)
	if len(members) != 200 || sum.Members != 200 || sum.Errors != 0 {
		t.Fatalf("job streamed %d members, summary %+v", len(members), sum)
	}
	if max := 2 + int(took/streamFlushDelay); len(flushes) > max {
		t.Errorf("%d flushes in %v, want at most %d", len(flushes), took, max)
	}
	if len(flushes) < 2 || lines(got[:flushes[0]]) != 1 || flushes[len(flushes)-1] != len(got) {
		t.Errorf("flushes at %v of %d bytes: want the first record alone first and the whole body last", flushes, len(got))
	}
	t.Logf("%d flushes for %d records in %v", len(flushes), len(members)+1, took)
}
