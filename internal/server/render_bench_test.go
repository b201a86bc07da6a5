package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/brandeis"
)

// table1Body is the paper's Table 1 query: the Brandeis CS major from
// an empty start, Fall 2013 → Fall 2015, at most 3 courses a semester.
// Its goal graph has 1,786 nodes and renders to a body of about 1 MB.
func table1Body(tb testing.TB) string {
	tb.Helper()
	req := ExploreRequest{
		Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3},
		Goal: &GoalSpec{Degree: []coursenav.DegreeGroup{
			{Name: "core", Count: 7, Courses: brandeis.CoreCourses()},
			{Name: "elective", Count: 5, Courses: brandeis.ElectiveCourses()},
		}},
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// BenchmarkRenderTable1 renders the Table 1 explore envelope — summary
// and 1,786-node graph document — into a reused buffer, as a computed
// goal response renders into a pooled one. Allocations per op stay a
// handful (the few term labels), so per-node allocation coming back
// fails the gate.
func BenchmarkRenderTable1(b *testing.B) {
	nav, major := coursenav.Brandeis()
	s := New(nav)
	g, sum, err := nav.GoalPaths(s.query(QuerySpec{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3}, nil), major)
	if err != nil {
		b.Fatal(err)
	}
	if n := g.Stats().Nodes; n != 1786 {
		b.Fatalf("Table 1 graph has %d nodes, want 1786", n)
	}
	buf, err := s.appendExploreBody(nil, sum, g)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = s.appendExploreBody(buf[:0], sum, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Request serves the Table 1 request cold through
// ServeHTTP: decode, key, admit, explore, render and write. The body is
// above the cache's per-entry cap, so every request computes.
func BenchmarkTable1Request(b *testing.B) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	body := table1Body(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/explore/goal", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Body.Len() < 1_000_000 {
			b.Fatalf("status %d, %d bytes", w.Code, w.Body.Len())
		}
	}
}
