package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share its ID; Parent names the enclosing span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Span   int           `json:"span"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pay one nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its span number (0 on a nil
// recorder).
func (r *recorder) add(id, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Span: n, Parent: parent, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return n
}

// wrap times fn as a span and returns its duration. A nil recorder still
// times fn, so callers can use the duration either way.
func (r *recorder) wrap(id, parent int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(id, parent, name, t0, t1)
	return t1.Sub(t0)
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON line in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent work under one parent) or stick out of the parent; only
// the union of their intervals clipped to the parent counts, so no
// instant is subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.Span] = s.dur() - covered(s.Start, s.End, children[s.Span])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(self[s.Span])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", workload, seed))
}
