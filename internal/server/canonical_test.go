package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode"

	"repro"
)

// canonKey canonicalizes req against the server's snapshot and derives
// its cache key, failing the test when caching is disabled.
func canonKey(t *testing.T, s *Server, endpoint string, req *ExploreRequest) interface{} {
	t.Helper()
	canonicalize(s.Navigator(), req)
	key, ok := exploreKey(0, endpoint, req)
	if !ok {
		t.Fatal("exploreKey unusable on a cache-enabled server")
	}
	return key
}

// TestCanonicalKeyEquality: requests that differ only in list order,
// duplicate completed courses, ID case or surrounding whitespace hash to
// the same cache key.
func TestCanonicalKeyEquality(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	base := func() *ExploreRequest {
		return &ExploreRequest{
			Query: QuerySpec{
				Completed: []string{"COSI 11A", "COSI 21A"},
				Start:     "Fall 2013",
				End:       "Fall 2015",
				Avoid:     []string{"COSI 30A"},
			},
			Goal: &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		}
	}
	want := canonKey(t, s, "goal", base())
	variants := map[string]*ExploreRequest{
		"reordered completed": {
			Query: QuerySpec{Completed: []string{"COSI 21A", "COSI 11A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		},
		"duplicated completed": {
			Query: QuerySpec{Completed: []string{"COSI 11A", "COSI 21A", "COSI 11A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", "COSI 130A"}},
		},
		"case-folded ids": {
			Query: QuerySpec{Completed: []string{"cosi 11a", "Cosi 21a"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"cosi 30a"}},
			Goal:  &GoalSpec{Courses: []string{"cosi 127b", "COSI 130A"}},
		},
		"whitespace": {
			Query: QuerySpec{Completed: []string{" COSI 11A ", "COSI 21A"}, Start: "  Fall 2013", End: "Fall 2015  ", Avoid: []string{"COSI 30A "}},
			Goal:  &GoalSpec{Courses: []string{"COSI 127B", " COSI 130A"}},
		},
		"reordered goal courses": {
			Query: QuerySpec{Completed: []string{"COSI 11A", "COSI 21A"}, Start: "Fall 2013", End: "Fall 2015", Avoid: []string{"COSI 30A"}},
			Goal:  &GoalSpec{Courses: []string{"COSI 130A", "COSI 127B"}},
		},
	}
	for name, req := range variants {
		if got := canonKey(t, s, "goal", req); got != want {
			t.Errorf("%s: key diverged from base", name)
		}
	}
}

// TestCanonicalKeySeparation: requests that genuinely differ must not
// collide — and degree-group course lists keep their order (counted
// requirements are not set-semantic), so reordering one is a different
// key.
func TestCanonicalKeySeparation(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	a := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}, Goal: &GoalSpec{Courses: []string{"COSI 11A"}}}
	b := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}, Goal: &GoalSpec{Courses: []string{"COSI 21A"}}}
	if canonKey(t, s, "goal", a) == canonKey(t, s, "goal", b) {
		t.Fatal("different goals share a key")
	}
	g1 := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"},
		Goal: &GoalSpec{Degree: []coursenav.DegreeGroup{{Name: "core", Count: 1, Courses: []string{"COSI 11A", "COSI 21A"}}}}}
	g2 := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"},
		Goal: &GoalSpec{Degree: []coursenav.DegreeGroup{{Name: "core", Count: 1, Courses: []string{"COSI 21A", "COSI 11A"}}}}}
	if canonKey(t, s, "goal", g1) == canonKey(t, s, "goal", g2) {
		t.Fatal("reordered degree group shares a key (group order is meaningful)")
	}
	// The same canonical request under different endpoints never collides.
	c := &ExploreRequest{Query: QuerySpec{Start: "Fall 2013", End: "Fall 2015"}}
	if canonKey(t, s, "deadline", c) == canonKey(t, s, "goal", c) {
		t.Fatal("endpoints share a key")
	}
}

// TestCanonicalizePreservesSemantics: a messy request (case-folded,
// reordered, duplicated, padded) answers exactly like its clean form —
// canonicalization changed the spelling, not the exploration.
func TestCanonicalizePreservesSemantics(t *testing.T) {
	ts := newTestServer(t)
	clean := `{"query":{"completed":["COSI 11A","COSI 12B"],"start":"Fall 2013","end":"Fall 2014","maxPerTerm":2},` +
		`"goal":{"courses":["COSI 21A"]}}`
	messy := `{"query":{"completed":["cosi 12b"," COSI 11A","COSI 11A"],"start":" Fall 2013 ","end":"Fall 2014","maxPerTerm":2},` +
		`"goal":{"courses":[" cosi 21a "]}}`
	respClean, bodyClean := post(t, ts, "/api/v1/explore/goal", clean)
	respMessy, bodyMessy := post(t, ts, "/api/v1/explore/goal", messy)
	if respClean.StatusCode != http.StatusOK || respMessy.StatusCode != http.StatusOK {
		t.Fatalf("status: clean=%d messy=%d (%s)", respClean.StatusCode, respMessy.StatusCode, bodyMessy)
	}
	if maskElapsed(bodyClean) != maskElapsed(bodyMessy) {
		t.Errorf("messy request diverged from clean:\n clean: %s\n messy: %s", bodyClean, bodyMessy)
	}
	// The messy form canonicalizes onto the clean form's cache entry.
	if got := respMessy.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("messy request X-Cache = %q, want hit", got)
	}
}

// TestCanonicalizeUnknownCourse: an ID that resolves to nothing stays as
// typed and fails with the usual unknown-course error — which is never
// cached.
func TestCanonicalizeUnknownCourse(t *testing.T) {
	ts := newTestServer(t)
	body := `{"query":{"completed":["NOPE 999"],"start":"Fall 2013","end":"Fall 2014"}}`
	for i := 0; i < 2; i++ {
		resp, b := post(t, ts, "/api/v1/explore/deadline", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("round %d: status = %d, body %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("round %d: error response X-Cache = %q, want miss (errors are not cached)", i, got)
		}
	}
}

// seededRequest draws an explore request over the Brandeis catalog: a
// small window, a few completed and avoided courses and, except for the
// deadline endpoint, one or two goal courses.
func seededRequest(rng *rand.Rand, ids []string, endpoint string) *ExploreRequest {
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = ids[rng.Intn(len(ids))]
		}
		return out
	}
	starts := []string{"Fall 2012", "Fall 2013", "Spring 2014"}
	ends := []string{"Fall 2014", "Spring 2015"}
	req := &ExploreRequest{Query: QuerySpec{
		Completed:  pick(rng.Intn(5)),
		Avoid:      pick(rng.Intn(2)),
		Start:      starts[rng.Intn(len(starts))],
		End:        ends[rng.Intn(len(ends))],
		MaxPerTerm: 1 + rng.Intn(2),
		CountOnly:  rng.Intn(2) == 0,
	}}
	if endpoint != "deadline" {
		req.Goal = &GoalSpec{Courses: pick(1 + rng.Intn(2))}
	}
	return req
}

// respell rewrites req's course lists as a client might: each list
// shuffled, every ID's letters in random case and padded with spaces.
func respell(rng *rand.Rand, req *ExploreRequest) {
	lists := []*[]string{&req.Query.Completed, &req.Query.Avoid}
	if req.Goal != nil {
		lists = append(lists, &req.Goal.Courses)
	}
	for _, l := range lists {
		rng.Shuffle(len(*l), func(i, j int) { (*l)[i], (*l)[j] = (*l)[j], (*l)[i] })
		for i, id := range *l {
			b := []byte(id)
			for k := range b {
				if rng.Intn(2) == 0 {
					b[k] = byte(unicode.ToLower(rune(b[k])))
				}
			}
			(*l)[i] = strings.Repeat(" ", rng.Intn(2)) + string(b) + strings.Repeat(" ", rng.Intn(2))
		}
	}
}

// FuzzCanonicalRequest: variants of a seeded explore request that differ
// only in course-list order, ID letter case and whitespace, in the JSON
// and around its strings, canonicalise to the same cache key, and the
// variant sent second is a cache hit with the first response's bytes.
func FuzzCanonicalRequest(f *testing.F) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	var ids []string
	for _, c := range nav.Courses() {
		ids = append(ids, c.ID)
	}
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, seed+100)
	}
	endpoints := []string{"deadline", "goal"}
	f.Fuzz(func(t *testing.T, seed, variant int64) {
		endpoint := endpoints[uint64(seed)%uint64(len(endpoints))]
		base := seededRequest(rand.New(rand.NewSource(seed)), ids, endpoint)
		body, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(variant))
		respell(rng, base)
		respelt, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		space := func() string {
			return strings.Repeat([]string{" ", "\t", "\n", "\r\n"}[rng.Intn(4)], rng.Intn(3))
		}
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, respelt, space(), space()); err != nil {
			t.Fatal(err)
		}
		variantBody := space() + spaced.String() + space()

		key := func(b string) interface{} {
			var req ExploreRequest
			if err := json.Unmarshal([]byte(b), &req); err != nil {
				t.Fatalf("decoding %q: %v", b, err)
			}
			return canonKey(t, s, endpoint, &req)
		}
		if key(string(body)) != key(variantBody) {
			t.Fatalf("variant %s of %s has another cache key", variantBody, body)
		}

		send := func(b string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explore/"+endpoint, strings.NewReader(b)))
			return rec
		}
		first := send(string(body))
		if first.Code != http.StatusOK || first.Body.Len() > maxCacheEntryBytes {
			return // the cache keeps neither errors nor oversized bodies
		}
		second := send(variantBody)
		if got := second.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("variant %s: X-Cache = %q, want hit", variantBody, got)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("variant %s: body\n%s\nwant\n%s", variantBody, second.Body, first.Body)
		}
	})
}
