// The response renderer: one appending writer for every hot response
// body and NDJSON record, and for the canonical request behind each
// cache key.
//
// Each wire shape keeps its struct (summaryBody, rankedResponse,
// whatIfResponse, the record types, horizonBody, ExploreRequest); the
// struct's JSON tags document the shape, and one append function here
// writes it without reflection. The bytes are exactly encoding/json's —
// field order, omitempty, null for a nil slice and [] for an empty one,
// HTML-escaped strings, its float format, and a trailing newline where
// an Encoder would add one — which the render fuzzers check against
// json.Marshal of the same struct. A value encoding/json refuses (NaN,
// ±Inf) fails the same way: the append returns encoding/json's error
// and the caller writes the bytes the encoder-based path wrote in that
// case (writeExplore, the ranked handler, streamWriter.record).
//
// encoding/json remains on the cold paths: options, audit, catalog,
// stats, error envelopes, reload status, request decoding.
package server

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro"
	"repro/internal/jsonenc"
)

// renderBuf is a pooled render buffer. A body is rendered once into one
// renderBuf; a buffered response adopts it without a copy, its cache
// entry takes one exact-length copy (newEntry), and the buffer returns
// to the pool once the body is on the wire.
type renderBuf struct{ b []byte }

// maxPooledRender bounds the buffers kept for reuse: a rare huge render
// is left to the collector rather than pinned in the pool.
const maxPooledRender = 4 << 20

var renderBufs = sync.Pool{New: func() any { return &renderBuf{b: make([]byte, 0, 4<<10)} }}

func newRenderBuf() *renderBuf {
	rb := renderBufs.Get().(*renderBuf)
	rb.b = rb.b[:0]
	return rb
}

// release returns rb to the pool; rb must not be used afterwards. nil
// is a no-op.
func (rb *renderBuf) release() {
	if rb != nil && cap(rb.b) <= maxPooledRender {
		renderBufs.Put(rb)
	}
}

// respond answers 200 application/json with a rendered body. A buffered
// response adopts rb; any other writer gets the bytes and rb goes back
// to the pool.
func respond(w http.ResponseWriter, rb *renderBuf) {
	w.Header().Set("Content-Type", "application/json")
	if b, ok := w.(*bufferedResponse); ok {
		b.adopt(rb)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rb.b)
	rb.release()
}

// ---- explore bodies ------------------------------------------------------

// appendSummary appends a run summary object (summaryBody).
func appendSummary(dst []byte, b summaryBody) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"paths":`...)
	dst = jsonenc.Int(dst, b.Paths)
	dst = append(dst, `,"goalPaths":`...)
	dst = jsonenc.Int(dst, b.GoalPaths)
	dst = append(dst, `,"nodes":`...)
	dst = jsonenc.Int(dst, b.Nodes)
	dst = append(dst, `,"edges":`...)
	dst = jsonenc.Int(dst, b.Edges)
	dst = append(dst, `,"prunedTime":`...)
	dst = jsonenc.Int(dst, b.PrunedTime)
	dst = append(dst, `,"prunedAvail":`...)
	dst = jsonenc.Int(dst, b.PrunedAvail)
	dst = append(dst, `,"elapsedMs":`...)
	dst, err := jsonenc.Float(dst, b.ElapsedMs)
	if err != nil {
		return dst[:start], err
	}
	if b.Stopped != "" {
		dst = append(dst, `,"stopped":`...)
		dst = jsonenc.String(dst, b.Stopped)
	}
	if b.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if b.DAG {
		dst = append(dst, `,"dag":true`...)
	}
	return append(dst, '}'), nil
}

// appendExploreBody appends the deadline/goal envelope
//
//	{"summary":{...}}                                  countOnly runs
//	{"summary":{...},"graph":<document>,"truncated":true}
//
// ending in a newline; "truncated" appears only when MaxResponseNodes
// cut the document, whose own trailing newline stays inside the
// envelope. A summary that cannot be rendered returns dst unchanged; a
// graph that cannot be rendered returns the body up to "graph":.
func (s *Server) appendExploreBody(dst []byte, sum coursenav.Summary, g *coursenav.Graph) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"summary":`...)
	dst, err := appendSummary(dst, toSummaryBody(sum))
	if err != nil {
		return dst[:start], err
	}
	if g == nil {
		return append(dst, "}\n"...), nil
	}
	dst = append(dst, `,"graph":`...)
	head := len(dst)
	dst, truncated, err := g.AppendJSON(dst, s.MaxResponseNodes)
	if err != nil {
		return dst[:head], err
	}
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, "}\n"...), nil
}

// renderExploreBody renders the explore envelope into a pooled buffer
// for a cache entry; nil on any render failure.
func (s *Server) renderExploreBody(sum coursenav.Summary, g *coursenav.Graph) (*renderBuf, error) {
	rb := newRenderBuf()
	var err error
	if rb.b, err = s.appendExploreBody(rb.b, sum, g); err != nil {
		rb.release()
		return nil, err
	}
	return rb, nil
}

// appendPathFields appends a path object (coursenav.Path) without its
// closing brace, so a streamed path can add its goal flag.
func appendPathFields(dst []byte, p coursenav.Path) ([]byte, error) {
	dst = append(dst, `{"semesters":`...)
	if p.Semesters == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, sel := range p.Semesters {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"term":`...)
			dst = jsonenc.String(dst, sel.Term)
			dst = append(dst, `,"courses":`...)
			dst = jsonenc.Strings(dst, sel.Courses)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	var err error
	if p.Cost != 0 {
		dst = append(dst, `,"cost":`...)
		if dst, err = jsonenc.Float(dst, p.Cost); err != nil {
			return dst, err
		}
	}
	if p.Value != 0 {
		dst = append(dst, `,"value":`...)
		if dst, err = jsonenc.Float(dst, p.Value); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendRanked appends the ranked endpoint's body (rankedResponse) and
// its newline.
func appendRanked(dst []byte, r rankedResponse) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"summary":`...)
	dst, err := appendSummary(dst, r.Summary)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"paths":`...)
	if r.Paths == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range r.Paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendPathFields(dst, p); err != nil {
				return dst[:start], err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendImpact appends one scored selection (coursenav.SelectionImpact).
func appendImpact(dst []byte, im coursenav.SelectionImpact) []byte {
	dst = append(dst, `{"courses":`...)
	dst = jsonenc.Strings(dst, im.Courses)
	dst = append(dst, `,"goalPaths":`...)
	dst = jsonenc.Int(dst, im.GoalPaths)
	dst = append(dst, `,"paths":`...)
	dst = jsonenc.Int(dst, im.Paths)
	dst = append(dst, `,"nextOptions":`...)
	dst = jsonenc.Int(dst, int64(im.NextOptions))
	return append(dst, '}')
}

// appendWhatIf appends the whatif endpoint's body (whatIfResponse) and
// its newline — also the cohort replan unit's body.
func appendWhatIf(dst []byte, r whatIfResponse) []byte {
	dst = append(dst, `{"selections":`...)
	if r.Selections == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, im := range r.Selections {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendImpact(dst, im)
		}
		dst = append(dst, ']')
	}
	if r.Stopped != "" {
		dst = append(dst, `,"stopped":`...)
		dst = jsonenc.String(dst, r.Stopped)
	}
	return append(dst, "}\n"...)
}

// ---- NDJSON records ------------------------------------------------------

// appendPathRecord appends a {"path":...} record.
func appendPathRecord(dst []byte, r pathRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"path":`...)
	dst, err := appendPathFields(dst, r.Path.Path)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"goal":`...)
	dst = jsonenc.Bool(dst, r.Path.Goal)
	return append(dst, "}}\n"...), nil
}

// appendSelectionRecord appends a {"selection":...} record.
func appendSelectionRecord(dst []byte, r selectionRecord) []byte {
	dst = append(dst, `{"selection":`...)
	dst = appendImpact(dst, r.Selection)
	return append(dst, "}\n"...)
}

// appendSummaryRecord appends a path stream's trailing {"summary":...}.
func appendSummaryRecord(dst []byte, r summaryRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"summary":`...)
	dst, err := appendSummary(dst, r.Summary)
	if err != nil {
		return dst[:start], err
	}
	return append(dst, "}\n"...), nil
}

// appendWhatIfSummaryRecord appends a what-if stream's trailing summary.
func appendWhatIfSummaryRecord(dst []byte, r whatIfSummaryRecord) []byte {
	dst = append(dst, `{"summary":{"selections":`...)
	dst = jsonenc.Int(dst, r.Summary.Selections)
	if r.Summary.Stopped != "" {
		dst = append(dst, `,"stopped":`...)
		dst = jsonenc.String(dst, r.Summary.Stopped)
	}
	return append(dst, "}}\n"...)
}

// appendErrorRecord appends an {"error":...} record (errorBody): a
// stream's in-band terminal failure.
func appendErrorRecord(dst []byte, e errorBody) []byte {
	dst = append(dst, `{"error":{"code":`...)
	dst = jsonenc.String(dst, e.Error.Code)
	dst = append(dst, `,"message":`...)
	dst = jsonenc.String(dst, e.Error.Message)
	if e.Error.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = jsonenc.String(dst, e.Error.Detail)
	}
	return append(dst, "}}\n"...)
}

// appendMemberRecord appends a cohort {"member":...} record. The replan
// is spliced in verbatim: it is a whatif body this renderer wrote, so it
// is already the compact, escaped form encoding/json would make of it.
func appendMemberRecord(dst []byte, r cohortMemberRecord) ([]byte, error) {
	start := len(dst)
	m := &r.Member
	dst = append(dst, `{"member":{"student":`...)
	dst = jsonenc.String(dst, m.Student)
	dst = append(dst, `,"goalPaths":`...)
	dst = jsonenc.Int(dst, m.GoalPaths)
	if m.Baseline != nil {
		dst = append(dst, `,"baseline":`...)
		dst = jsonenc.Int(dst, *m.Baseline)
	}
	dst = append(dst, `,"affected":`...)
	dst = jsonenc.Bool(dst, m.Affected)
	dst = append(dst, `,"delay":`...)
	dst = jsonenc.Int(dst, int64(m.Delay))
	if m.Stranded {
		dst = append(dst, `,"stranded":true`...)
	}
	if m.Reliability != nil {
		dst = append(dst, `,"reliability":`...)
		var err error
		if dst, err = jsonenc.Float(dst, *m.Reliability); err != nil {
			return dst[:start], err
		}
	}
	if len(m.Replan) > 0 {
		dst = append(dst, `,"replan":`...)
		dst = append(dst, m.Replan...)
	}
	if m.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonenc.String(dst, m.Error)
	}
	return append(dst, "}}\n"...), nil
}

// appendCohortSummaryRecord appends a cohort job's trailing summary.
func appendCohortSummaryRecord(dst []byte, r cohortSummaryRecord) ([]byte, error) {
	start := len(dst)
	sum := &r.Summary
	dst = append(dst, `{"summary":{"members":`...)
	dst = jsonenc.Int(dst, int64(sum.Members))
	dst = append(dst, `,"affected":`...)
	dst = jsonenc.Int(dst, int64(sum.Affected))
	dst = append(dst, `,"delayed":`...)
	dst = jsonenc.Int(dst, int64(sum.Delayed))
	dst = append(dst, `,"stranded":`...)
	dst = jsonenc.Int(dst, int64(sum.Stranded))
	dst = append(dst, `,"errors":`...)
	dst = jsonenc.Int(dst, int64(sum.Errors))
	if len(sum.DelayHistogram) > 0 {
		dst = append(dst, `,"delayHistogram":[`...)
		for i, n := range sum.DelayHistogram {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.Int(dst, int64(n))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"meanDelay":`...)
	dst, err := jsonenc.Float(dst, sum.MeanDelay)
	if err != nil {
		return dst[:start], err
	}
	if sum.MeanReliability != nil {
		dst = append(dst, `,"meanReliability":`...)
		if dst, err = jsonenc.Float(dst, *sum.MeanReliability); err != nil {
			return dst[:start], err
		}
	}
	dst = append(dst, `,"units":`...)
	dst = jsonenc.Int(dst, sum.Units)
	dst = append(dst, `,"coalesced":`...)
	dst = jsonenc.Int(dst, sum.Coalesced)
	return append(dst, "}}\n"...), nil
}

// ---- cohort horizon units ------------------------------------------------

// appendHorizonBody appends a multi-deadline counting unit's cached body
// (horizonBody) and its newline.
func appendHorizonBody(dst []byte, h horizonBody) []byte {
	dst = append(dst, `{"goalPaths":`...)
	if h.GoalPaths == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, n := range h.GoalPaths {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.Int(dst, n)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// errHorizonBody reports a horizon unit body that is not in the shape
// appendHorizonBody writes.
var errHorizonBody = errors.New("server: malformed horizon unit body")

// parseHorizonBody reads a body appendHorizonBody wrote, without a JSON
// decoder: exactly {"goalPaths":[n,...]|null} and a newline; any other
// shape is rejected.
func parseHorizonBody(body []byte) (horizonBody, error) {
	var h horizonBody
	rest, ok := bytes.CutPrefix(body, []byte(`{"goalPaths":`))
	if !ok {
		return h, errHorizonBody
	}
	if rest, ok = bytes.CutPrefix(rest, []byte("null")); !ok {
		if rest, ok = bytes.CutPrefix(rest, []byte("[")); !ok {
			return h, errHorizonBody
		}
		h.GoalPaths = []int64{}
		if rest, ok = bytes.CutPrefix(rest, []byte("]")); !ok {
			for {
				var n int64
				if n, rest, ok = parseInt(rest); !ok {
					return h, errHorizonBody
				}
				h.GoalPaths = append(h.GoalPaths, n)
				if rest, ok = bytes.CutPrefix(rest, []byte(",")); ok {
					continue
				}
				if rest, ok = bytes.CutPrefix(rest, []byte("]")); !ok {
					return h, errHorizonBody
				}
				break
			}
		}
	}
	if string(rest) != "}\n" {
		return h, errHorizonBody
	}
	return h, nil
}

// parseInt reads one integer as jsonenc.Int writes it: an optional
// minus sign, then digits with no leading zero, within int64 ("-0"
// excluded).
func parseInt(b []byte) (int64, []byte, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == digits || (b[digits] == '0' && i > digits+1) {
		return 0, b, false
	}
	n, err := strconv.ParseInt(string(b[:i]), 10, 64)
	if err != nil || (n == 0 && digits == 1) {
		return 0, b, false
	}
	return n, b[i:], true
}

// ---- canonical requests --------------------------------------------------

// appendExploreRequest appends the canonical encoding of req that keys
// the result cache and the admission estimator: json.Marshal's bytes,
// including the untagged Weight and DegreeGroup field names. A float
// field encoding/json refuses returns an error and the request is not
// keyed.
func appendExploreRequest(dst []byte, req *ExploreRequest) ([]byte, error) {
	q := &req.Query
	var err error
	dst = append(dst, `{"query":{`...)
	if len(q.Completed) > 0 {
		dst = append(dst, `"completed":`...)
		dst = jsonenc.Strings(dst, q.Completed)
		dst = append(dst, ',')
	}
	dst = append(dst, `"start":`...)
	dst = jsonenc.String(dst, q.Start)
	dst = append(dst, `,"end":`...)
	dst = jsonenc.String(dst, q.End)
	if q.MaxPerTerm != 0 {
		dst = append(dst, `,"maxPerTerm":`...)
		dst = jsonenc.Int(dst, int64(q.MaxPerTerm))
	}
	if len(q.Avoid) > 0 {
		dst = append(dst, `,"avoid":`...)
		dst = jsonenc.Strings(dst, q.Avoid)
	}
	if q.MaxTermWorkload != 0 {
		dst = append(dst, `,"maxTermWorkload":`...)
		if dst, err = jsonenc.Float(dst, q.MaxTermWorkload); err != nil {
			return dst, err
		}
	}
	if q.MinPerTerm != 0 {
		dst = append(dst, `,"minPerTerm":`...)
		dst = jsonenc.Int(dst, int64(q.MinPerTerm))
	}
	if q.MaxPathCost != 0 {
		dst = append(dst, `,"maxPathCost":`...)
		if dst, err = jsonenc.Float(dst, q.MaxPathCost); err != nil {
			return dst, err
		}
	}
	if q.CountOnly {
		dst = append(dst, `,"countOnly":true`...)
	}
	dst = append(dst, '}')
	if g := req.Goal; g != nil {
		dst = append(dst, `,"goal":{`...)
		sep := false
		if len(g.Courses) > 0 {
			dst = append(dst, `"courses":`...)
			dst = jsonenc.Strings(dst, g.Courses)
			sep = true
		}
		if g.Expr != "" {
			if sep {
				dst = append(dst, ',')
			}
			dst = append(dst, `"expr":`...)
			dst = jsonenc.String(dst, g.Expr)
			sep = true
		}
		if len(g.Degree) > 0 {
			if sep {
				dst = append(dst, ',')
			}
			dst = append(dst, `"degree":[`...)
			for i, grp := range g.Degree {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"Name":`...)
				dst = jsonenc.String(dst, grp.Name)
				dst = append(dst, `,"Count":`...)
				dst = jsonenc.Int(dst, int64(grp.Count))
				dst = append(dst, `,"Courses":`...)
				dst = jsonenc.Strings(dst, grp.Courses)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	if b := req.Budget; b != nil {
		dst = append(dst, `,"budget":{`...)
		sep := false
		for _, f := range [...]struct {
			name string
			v    int64
		}{{`"timeoutMs":`, b.TimeoutMs}, {`"maxNodes":`, b.MaxNodes}, {`"maxPaths":`, b.MaxPaths}} {
			if f.v == 0 {
				continue
			}
			if sep {
				dst = append(dst, ',')
			}
			dst = append(dst, f.name...)
			dst = jsonenc.Int(dst, f.v)
			sep = true
		}
		dst = append(dst, '}')
	}
	if req.Ranking != "" {
		dst = append(dst, `,"ranking":`...)
		dst = jsonenc.String(dst, req.Ranking)
	}
	if len(req.Weights) > 0 {
		dst = append(dst, `,"weights":[`...)
		for i, w := range req.Weights {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Ranking":`...)
			dst = jsonenc.String(dst, w.Ranking)
			dst = append(dst, `,"Weight":`...)
			if dst, err = jsonenc.Float(dst, w.Weight); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if req.K != 0 {
		dst = append(dst, `,"k":`...)
		dst = jsonenc.Int(dst, int64(req.K))
	}
	return append(dst, '}'), nil
}
