// NDJSON streaming for the explore endpoints (?stream=1).
//
// A streamed exploration answers with Content-Type application/x-ndjson:
// one JSON record per line. The first record is flushed as written, so
// the first path reaches the client while the engine is still searching
// — the interactivity the paper's §5 latency numbers are about, but
// without waiting for the run to finish at all. The terminal record is
// flushed as written too, and every other record reaches the client
// within streamFlushDelay of being written (see streamWriter). The
// record vocabulary:
//
//	{"path":{...}}       one learning path (deadline/goal/ranked)
//	{"selection":{...}}  one scored selection (whatif)
//	{"summary":{...}}    trailing record: the run's final tallies
//	{"error":{...}}      terminal record: the run failed mid-stream
//
// Exactly one of summary/error ends a healthy stream; a stream that ends
// with neither was cut by the transport. Errors detected before the
// first record (bad request body, unknown course, invalid window) are
// returned as the ordinary JSON error envelope with a 4xx status — the
// NDJSON framing starts only once the first record is written.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/resultcache"
)

// wantsStream reports whether the request opted into NDJSON streaming.
func wantsStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// serveStream is the ?stream=1 side of the serving pipeline: it derives
// the request's key, admits the run under it and publishes the entry of
// a complete run. Streams never read the cache — their value is
// incremental delivery — and join no flight. run streams the response
// and returns the entry to publish, or nil; publish tells it whether a
// cache partition will take one, so it renders nothing otherwise.
func (s *Server) serveStream(t *tenantState, w http.ResponseWriter, r *http.Request, req *ExploreRequest, endpoint string, gen uint64, run func(publish bool) *resultcache.Entry) {
	u := newUnit(t, gen, endpoint, req)
	res, ok := s.admit(r.Context(), u)
	if !ok {
		if res.outcome == admission.Canceled {
			// The client left while queued: nothing to answer.
			annotate(w, req.Query, 0, explore.StopCanceled)
			return
		}
		s.writeShed(t, w, res)
		return
	}
	annotateAdmission(w, res.outcome)
	defer res.release()
	if ent := run(u.cache != nil); ent != nil && u.cache != nil {
		u.cache.Put(u.key, ent)
	}
}

// streamable rejects request shapes that cannot stream: countOnly runs
// deliver no paths, so combining the two is a contradiction.
func streamable(w http.ResponseWriter, req *ExploreRequest) bool {
	if req.Query.CountOnly {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"countOnly and ?stream=1 are mutually exclusive: a counting run delivers no paths to stream")
		return false
	}
	return true
}

// streamFlushDelay bounds how long a record other than the first and
// the terminal one waits in the response buffer before it is flushed.
// A flush per record costs a write(2) and a wake-up of the client's
// reader per record; flushing at most once per delay lets a burst of
// records (a cohort job's members, a fast search's paths) share one.
const streamFlushDelay = time.Millisecond

// streamWriter frames NDJSON records onto the response. The header is
// written lazily with the first record, so pre-start failures still get
// a plain 4xx JSON envelope. Each record is one Write as rendered; only
// flushes are coalesced. The first record and the terminal one (summary
// or error, written by finishStream) are flushed at once; any other is
// flushed by the next record that finds streamFlushDelay has passed
// since the last flush or, when the producer goes quiet first, by a
// timer, so it reaches the client within streamFlushDelay. The first
// write failure kills the stream (the client is gone — statusRecorder
// reports it as a write abort).
//
// The timer flushes from its own goroutine, so Write and Flush hold mu.
// Every handler that opens a stream defers close, which stops and fences
// the timer: nothing touches the response after the handler returns,
// and on a panic close runs before ServeHTTP's recovery writes its
// in-band error record.
type streamWriter struct {
	w http.ResponseWriter
	// buf is the record buffer: each record is rendered into buf[:0]
	// (render.go) and handed to record.
	buf     []byte
	flush   func()
	chaos   *chaos.Injector
	started bool
	err     error
	paths   int64

	mu sync.Mutex // guards the response and the fields below
	// lastFlush is when the response was last flushed; zero before the
	// first record.
	lastFlush time.Time
	// pending: a record was written after lastFlush. armed: the timer
	// will fire. closed: close ran, the timer must not flush.
	pending, armed, closed bool
	timer                  *time.Timer
}

func (s *Server) newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, chaos: s.Chaos}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

// record writes one NDJSON record rendered into sw.buf; it reaches the
// client within streamFlushDelay. renderErr is the render's failure on a
// value encoding/json refuses: like the encoder's, it fails the stream
// after the header, with nothing of the record written.
func (sw *streamWriter) record(rec []byte, renderErr error) error {
	return sw.write(rec, renderErr, false)
}

// terminal is record for the stream's last record, flushed at once.
func (sw *streamWriter) terminal(rec []byte, renderErr error) error {
	return sw.write(rec, renderErr, true)
}

func (sw *streamWriter) write(rec []byte, renderErr error, terminal bool) error {
	if sw.err != nil {
		return sw.err
	}
	// The mid-stream-write chaos seam: an injected error behaves exactly
	// like the transport dying (the run aborts, usage reports a write
	// abort); an injected panic exercises the in-band error-record
	// recovery; injected latency models a slow reader applying
	// backpressure. Fires before the header too — a pre-start failure is
	// a client that died between request and first record.
	if err := sw.chaos.Fire(chaos.StreamWrite); err != nil {
		sw.err = err
		return err
	}
	if !sw.started {
		sw.started = true
		if rec, ok := sw.w.(*statusRecorder); ok {
			// Once the NDJSON header is on the wire the plain error envelope
			// is no longer expressible; the panic recovery keys off this.
			rec.ndjson = true
		}
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
		sw.w.WriteHeader(http.StatusOK)
	}
	if renderErr != nil {
		sw.err = renderErr
		return renderErr
	}
	sw.buf = rec[:0]
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, err := sw.w.Write(rec); err != nil {
		sw.err = err
		return err
	}
	if sw.flush == nil {
		return nil
	}
	// The first record finds lastFlush zero, so it is flushed at once.
	now := time.Now()
	since := now.Sub(sw.lastFlush)
	if terminal || since >= streamFlushDelay {
		sw.flushLocked(now)
		return nil
	}
	sw.pending = true
	if !sw.armed {
		sw.armed = true
		if sw.timer == nil {
			sw.timer = time.AfterFunc(streamFlushDelay-since, sw.onTimer)
		} else {
			sw.timer.Reset(streamFlushDelay - since)
		}
	}
	return nil
}

// flushLocked flushes the response; sw.mu must be held.
func (sw *streamWriter) flushLocked(now time.Time) {
	sw.flush()
	sw.lastFlush, sw.pending = now, false
}

// onTimer flushes a record the producer left pending. If a record
// flushed the stream after the timer was armed, less than
// streamFlushDelay may have passed since that flush; the timer then
// waits out the rest, so flushes stay at least streamFlushDelay apart.
func (sw *streamWriter) onTimer() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.armed = false
	if sw.closed || !sw.pending {
		return
	}
	now := time.Now()
	if wait := streamFlushDelay - now.Sub(sw.lastFlush); wait > 0 {
		sw.armed = true
		sw.timer.Reset(wait)
		return
	}
	sw.flushLocked(now)
}

// close stops the flush timer and fences it: once close returns, the
// timer's goroutine no longer touches the response. It flushes nothing —
// finishStream's terminal record already went out, and net/http flushes
// whatever is left when the handler returns.
func (sw *streamWriter) close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.closed = true
	if sw.timer != nil {
		sw.timer.Stop()
	}
}

type pathRecord struct {
	Path coursenav.StreamedPath `json:"path"`
}

type selectionRecord struct {
	Selection coursenav.SelectionImpact `json:"selection"`
}

type summaryRecord struct {
	Summary summaryBody `json:"summary"`
}

// finishStream closes the stream after the run returned: a clean run
// gets its trailing summary record, which trailer renders; a run that
// failed after records went out gets an in-band {"error":...} record
// (the status line already said 200 — the error record is the only way
// to tell the client); a run that failed before any record fell back to
// the plain JSON envelope; a dead socket gets nothing. A terminal record
// is flushed as written, so the client has it before the caller goes on
// (a complete explore stream renders its cache entry next).
func (s *Server) finishStream(w http.ResponseWriter, sw *streamWriter, err error, trailer func(dst []byte) ([]byte, error)) {
	if ev := usageEvent(w); ev != nil {
		ev.Streamed, ev.StreamedPaths = sw.started, sw.paths
	}
	switch {
	case err == nil:
		_ = sw.terminal(trailer(sw.buf[:0]))
	case !sw.started:
		s.writeNavErr(w, err)
	case sw.err != nil:
		// The write failed: the client disconnected mid-stream. The run
		// was aborted through the callback error; nothing can be sent.
	default:
		_ = sw.terminal(appendErrorRecord(sw.buf[:0], errorBody{Error: errorInfo{Code: CodeInternal, Message: err.Error()}}), nil)
	}
}

// streamPaths drives one path-streaming run (deadline, goal or ranked)
// behind a façade closure, translating delivered paths into NDJSON
// records and the final Summary into the trailing summary record. It
// returns the run's summary and whether the run was complete — no error,
// no failed write, no early stop — so callers can decide to populate the
// result cache from the streamed run.
func (s *Server) streamPaths(w http.ResponseWriter, r *http.Request, req *ExploreRequest, run func(context.Context, func(coursenav.StreamedPath) error) (coursenav.Summary, error)) (coursenav.Summary, bool) {
	ctx, cancel := s.runCtx(r, req.Budget)
	defer cancel()
	sw := s.newStreamWriter(w)
	defer sw.close()
	sum, err := run(ctx, func(p coursenav.StreamedPath) error {
		if err := sw.record(appendPathRecord(sw.buf[:0], pathRecord{Path: p})); err != nil {
			return err
		}
		sw.paths++
		return nil
	})
	annotate(w, req.Query, sw.paths, streamStopped(sum.Stopped, sw))
	s.finishStream(w, sw, err, func(dst []byte) ([]byte, error) {
		return appendSummaryRecord(dst, summaryRecord{Summary: toSummaryBody(sum)})
	})
	return sum, err == nil && sw.err == nil && sum.Stopped == ""
}

// whatIfStreamSummary is the trailing summary record of a streamed
// what-if comparison.
type whatIfStreamSummary struct {
	// Selections is the number of fully scored candidates delivered.
	Selections int64 `json:"selections"`
	// Stopped names why scoring ended early; delivered selections carry
	// exact tallies regardless.
	Stopped string `json:"stopped,omitempty"`
}

type whatIfSummaryRecord struct {
	Summary whatIfStreamSummary `json:"summary"`
}

// streamWhatIf drives a streamed selection comparison: one
// {"selection":...} record per scored candidate, in enumeration order
// (tallies are exact; order is not impact-sorted), then the trailing
// summary.
func (s *Server) streamWhatIf(w http.ResponseWriter, r *http.Request, req *ExploreRequest, nav *coursenav.Navigator, goal coursenav.Goal) {
	ctx, cancel := s.runCtx(r, req.Budget)
	defer cancel()
	sw := s.newStreamWriter(w)
	defer sw.close()
	var n int64
	stopped, err := nav.WhatIfStream(ctx, s.query(req.Query, req.Budget), goal, func(im coursenav.SelectionImpact) error {
		if err := sw.record(appendSelectionRecord(sw.buf[:0], selectionRecord{Selection: im}), nil); err != nil {
			return err
		}
		n++
		return nil
	})
	annotate(w, req.Query, n, streamStopped(stopped, sw))
	s.finishStream(w, sw, err, func(dst []byte) ([]byte, error) {
		return appendWhatIfSummaryRecord(dst, whatIfSummaryRecord{Summary: whatIfStreamSummary{Selections: n, Stopped: stopped}}), nil
	})
}

// streamStopped resolves the stop reason recorded in usage: a mid-stream
// write failure means the client went away, which the engine surfaces as
// a cancel even when its own tally beat it to a different reason.
func streamStopped(stopped string, sw *streamWriter) string {
	if sw.err != nil {
		return explore.StopCanceled
	}
	return stopped
}
