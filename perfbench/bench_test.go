package main

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// encodeAll renders a request sequence as the bytes the server would
// receive, with each request's schedule.
func encodeAll(rs []*request) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %s %s %d %d\n", r.ID, r.Method, r.Path, r.Due.Nanoseconds(), len(r.Body))
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func sequences(t *testing.T, w *world, seed int64) []byte {
	t.Helper()
	p, err := newPool(w)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.openSeq(seed, 0, 400, interactiveRate, 0)
	rs = append(rs, p.openSeq(seed+1, 400, 200, 4000, hotPositions)...)
	cg := newColdGen(w, seed)
	jg := newCohortGen(w, seed)
	for i := 0; i < 200; i++ {
		rs = append(rs, cg.request())
	}
	for i := 0; i < 12; i++ {
		rs = append(rs, jg.request())
	}
	return encodeAll(rs)
}

func TestSameSeedGivesByteIdenticalRequests(t *testing.T) {
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	a, b := sequences(t, w, 7), sequences(t, w, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different request sequences")
	}
	if bytes.Equal(a, sequences(t, w, 8)) {
		t.Fatal("different seeds produced the same request sequence")
	}
}

func TestColdKeysAreUnique(t *testing.T) {
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	g := newColdGen(w, 3)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		r := g.request()
		if seen[r.Key] {
			t.Fatalf("request %d repeats key %s", i, r.Key)
		}
		seen[r.Key] = true
	}
}

func TestCohortJobsAlternateFreshAndRepeat(t *testing.T) {
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	g := newCohortGen(w, 5)
	var prev *request
	for i := 0; i < 10; i++ {
		r := g.request()
		if r.Warm != (i%2 == 1) {
			t.Fatalf("job %d: warm = %v", i, r.Warm)
		}
		if r.Warm && !bytes.Equal(r.Body, prev.Body) {
			t.Fatalf("job %d repeats a different body", i)
		}
		if !r.Warm && prev != nil && bytes.Equal(r.Body, prev.Body) {
			t.Fatalf("job %d is fresh but repeats the previous body", i)
		}
		prev = r
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // rank 990 of 1000: exactly ten beyond
		{999, 95, true},  // p99 would leave nine beyond
		{100, 90, true},
		{199, 90, true}, // p95 would leave nine beyond
		{200, 95, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, v, ok := mk(tc.n).tail()
		if ok != tc.ok || p != tc.want {
			t.Errorf("n=%d: tail() = p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
		if ok && v != float64(rankOf(tc.n, p)+1) {
			t.Errorf("n=%d: p%g = %g", tc.n, p, v)
		}
	}
	if got := mk(100).pct(50); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Span: 1, Name: "req", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 60].
		{ID: 1, Span: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 1, Span: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		// A child running past the parent's end counts only inside it.
		{ID: 1, Span: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is its parent's business, not the root's.
		{ID: 1, Span: 5, Parent: 2, Name: "d", Start: 15 * ms, End: 25 * ms},
		// A child nested wholly inside a sibling adds nothing.
		{ID: 1, Span: 6, Parent: 1, Name: "e", Start: 20 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40 * ms, 2: 20 * ms, 3: 30 * ms, 4: 30 * ms, 5: 10 * ms, 6: 15 * ms} {
		if self[id] != want {
			t.Errorf("span %d: self = %v, want %v", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if by["req"] != 40 {
		t.Errorf("selfByName[req] = %g ms, want 40", by["req"])
	}
}

func TestDigestIgnoresTimingAndBrownoutMarker(t *testing.T) {
	r := &request{Kind: kGoal}
	a := digest(r, http.StatusOK, []byte(`{"summary":{"paths":3,"elapsedMs":1.25,"dag":true},"graph":{}}`+"\n"))
	b := digest(r, http.StatusOK, []byte(`{"summary":{"paths":3,"elapsedMs":0.5,"dag":true},"graph":{},"degraded":true}`+"\n"))
	if a != b {
		t.Error("bodies differing only in elapsedMs and the degraded marker digest differently")
	}
	c := digest(r, http.StatusOK, []byte(`{"summary":{"paths":4,"elapsedMs":0.5,"dag":true},"graph":{}}`+"\n"))
	if a == c {
		t.Error("bodies with different tallies digest equally")
	}
	cnt := &request{Kind: kCount}
	if got := digest(cnt, http.StatusOK, []byte(`{"summary":{"paths":9,"goalPaths":2,"elapsedMs":3}}`)); got != countDigest(9, 2, "") {
		t.Errorf("count digest = %q", got)
	}
}

func TestRegistrarDumpRoundTrips(t *testing.T) {
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCatalog(w, registrarDump(w.brandeis, w.first.Label(), w.last.Label())); err != nil {
		t.Fatal(err)
	}
}
