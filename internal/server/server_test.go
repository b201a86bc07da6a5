package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/catalog"
	"repro/internal/term"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	nav, _ := coursenav.Brandeis()
	ts := httptest.NewServer(New(nav))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestCatalogAndCourse(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts, "/api/v1/catalog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status %d", resp.StatusCode)
	}
	var courses []map[string]interface{}
	if err := json.Unmarshal(body, &courses); err != nil || len(courses) != 38 {
		t.Fatalf("catalog: %v, %d courses", err, len(courses))
	}
	resp, body = get(t, ts, "/api/v1/courses/COSI 21A")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "COSI 11A") {
		t.Errorf("course: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/api/v1/courses/NOPE")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown course status = %d", resp.StatusCode)
	}
}

func TestOptionsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts, "/api/v1/options?term=Fall+2013")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("options status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Options []string `json:"options"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Options) != 3 {
		t.Errorf("options = %v (%v)", out.Options, err)
	}
	resp, body = get(t, ts, "/api/v1/options?term=Spring+2014&completed=COSI+11A,COSI+29A")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("options status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out.Options, ",")
	if !strings.Contains(joined, "COSI 21A") || !strings.Contains(joined, "COSI 12B") {
		t.Errorf("options after intro = %v", out.Options)
	}
	if resp, _ := get(t, ts, "/api/v1/options"); resp.StatusCode != http.StatusBadRequest {
		t.Error("missing term accepted")
	}
	if resp, _ := get(t, ts, "/api/v1/options?term=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Error("bad term accepted")
	}
}

func TestDeadlineEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Spring 2015","end":"Fall 2015","maxPerTerm":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Summary struct {
			Paths int64 `json:"paths"`
			Nodes int64 `json:"nodes"`
		} `json:"summary"`
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.Paths == 0 || len(out.Graph) == 0 {
		t.Errorf("deadline response: %+v", out)
	}
	// countOnly drops the graph.
	resp, body = post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Spring 2015","end":"Fall 2015","maxPerTerm":2,"countOnly":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("countOnly status %d", resp.StatusCode)
	}
	out.Graph = nil
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Graph) != 0 && string(out.Graph) != "null" {
		t.Errorf("countOnly returned a graph: %s", out.Graph)
	}
}

func TestDeadlineBudget(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	s.NodeBudget = 50
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, body := post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("budget status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Errorf("budget error body: %s", body)
	}
}

func TestGoalEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Degree-goal query over a feasible window.
	resp, body := post(t, ts, "/api/v1/explore/goal", `{
		"query":{"start":"Spring 2014","end":"Fall 2015","maxPerTerm":3,
		         "completed":["COSI 11A","COSI 29A","COSI 2A"]},
		"goal":{"courses":["COSI 12B","COSI 21A","COSI 21B","COSI 30A","COSI 31A"]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("goal status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Summary struct {
			GoalPaths   int64 `json:"goalPaths"`
			PrunedTime  int64 `json:"prunedTime"`
			PrunedAvail int64 `json:"prunedAvail"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.GoalPaths == 0 {
		t.Errorf("no goal paths: %s", body)
	}
	// Expression and degree goals work too.
	resp, _ = post(t, ts, "/api/v1/explore/goal", `{
		"query":{"start":"Fall 2014","end":"Fall 2015","maxPerTerm":2},
		"goal":{"expr":"COSI 11A and COSI 29A"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("expr goal status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/api/v1/explore/goal", `{
		"query":{"start":"Fall 2014","end":"Fall 2015","maxPerTerm":2},
		"goal":{"degree":[{"Name":"intro","Count":2,"Courses":["COSI 11A","COSI 29A","COSI 2A"]}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degree goal status %d", resp.StatusCode)
	}
	// Goal validation.
	for _, bad := range []string{
		`{"query":{"start":"Fall 2014","end":"Fall 2015"},"goal":{}}`,
		`{"query":{"start":"Fall 2014","end":"Fall 2015"},"goal":{"expr":"x","courses":["COSI 11A"]}}`,
		`{"query":{"start":"Fall 2014","end":"Fall 2015"},"goal":{"courses":["NOPE"]}}`,
		`not json`,
		`{"query":{"start":"Fall 2014","end":"Fall 2015"},"goal":{"expr":"((("}}`,
		`{"unknown_field":1}`,
	} {
		resp, _ := post(t, ts, "/api/v1/explore/goal", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad goal request %q: status %d", bad, resp.StatusCode)
		}
	}
}

func TestRankedEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/explore/ranked", `{
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
		"goal":{"degree":[
			{"Name":"core","Count":7,"Courses":["COSI 11A","COSI 12B","COSI 21A","COSI 21B","COSI 29A","COSI 30A","COSI 31A"]},
			{"Name":"any","Count":2,"Courses":["COSI 2A","COSI 33B","COSI 114A","COSI 127B"]}]},
		"ranking":"time","k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranked status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Paths []struct {
			Semesters []struct {
				Term    string   `json:"term"`
				Courses []string `json:"courses"`
			} `json:"semesters"`
			Cost float64 `json:"cost"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 3 {
		t.Fatalf("ranked returned %d paths", len(out.Paths))
	}
	for i := 1; i < len(out.Paths); i++ {
		if out.Paths[i].Cost < out.Paths[i-1].Cost {
			t.Error("ranked costs out of order")
		}
	}
	// k and ranking validation.
	resp, _ = post(t, ts, "/api/v1/explore/ranked", `{
		"query":{"start":"Fall 2014","end":"Fall 2015"},
		"goal":{"courses":["COSI 11A"]},"k":0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("k=0 accepted")
	}
	resp, _ = post(t, ts, "/api/v1/explore/ranked", `{
		"query":{"start":"Fall 2014","end":"Fall 2015"},
		"goal":{"courses":["COSI 11A"]},"ranking":"magic","k":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("unknown ranking accepted")
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/explore/deadline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint: %d", resp.StatusCode)
	}
	resp2, _ := post(t, ts, "/api/v1/nope", "{}")
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", resp2.StatusCode)
	}
	// The retired unversioned aliases 404 with a hint at the v1 form.
	resp3, body := post(t, ts, "/api/explore/deadline", "{}")
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("retired alias: %d", resp3.StatusCode)
	}
	if !strings.Contains(string(body), "/api/v1/") || !strings.Contains(string(body), `"not_found"`) {
		t.Errorf("retired alias body missing hint: %s", body)
	}
}

func TestRankedEndpointWeightsAndConstraints(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/explore/ranked", `{
		"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3,
		         "avoid":["COSI 2A"],"maxTermWorkload":32},
		"goal":{"degree":[
			{"Name":"core","Count":7,"Courses":["COSI 11A","COSI 12B","COSI 21A","COSI 21B","COSI 29A","COSI 30A","COSI 31A"]},
			{"Name":"any","Count":3,"Courses":["COSI 33B","COSI 114A","COSI 127B","COSI 25A","COSI 65A"]}]},
		"weights":[{"Ranking":"time","Weight":100},{"Ranking":"workload","Weight":1}],
		"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted ranked status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "COSI 2A") {
		t.Errorf("avoided course in response: %s", body)
	}
	var out struct {
		Paths []struct {
			Cost float64 `json:"cost"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 2 || out.Paths[0].Cost <= 0 {
		t.Errorf("weighted paths = %+v", out.Paths)
	}
}

func TestAuditEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/audit", `{
		"completed":["COSI 11A","COSI 29A","COSI 2A"],
		"goal":{"degree":[
			{"Name":"core","Count":7,"Courses":["COSI 11A","COSI 12B","COSI 21A","COSI 21B","COSI 29A","COSI 30A","COSI 31A"]},
			{"Name":"elective","Count":5,"Courses":["COSI 2A","COSI 33B","COSI 114A","COSI 127B","COSI 25A","COSI 65A"]}]},
		"now":"Fall 2014","deadline":"Fall 2015","maxPerTerm":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Groups []struct {
			Name   string `json:"name"`
			Filled int    `json:"filled"`
			Needed int    `json:"needed"`
		} `json:"groups"`
		RemainingSlots int  `json:"remainingSlots"`
		Reachable      bool `json:"reachable"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 2 || out.Groups[0].Filled != 2 || out.RemainingSlots != 9 {
		t.Errorf("audit = %+v", out)
	}
	if out.Reachable {
		t.Error("9 slots in 2 semesters reported reachable")
	}
	// Validation.
	resp, _ = post(t, ts, "/api/v1/audit", `{"completed":[],"goal":{"courses":["COSI 11A"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("non-degree goal accepted")
	}
	resp, _ = post(t, ts, "/api/v1/audit", `{"goal":{"degree":[{"Name":"g","Count":1,"Courses":["NOPE"]}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("unknown course accepted")
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/explore/whatif", `{
		"query":{"start":"Spring 2014","end":"Spring 2016","maxPerTerm":3,
		         "completed":["COSI 11A","COSI 29A"]},
		"goal":{"degree":[
			{"Name":"core","Count":7,"Courses":["COSI 11A","COSI 12B","COSI 21A","COSI 21B","COSI 29A","COSI 30A","COSI 31A"]},
			{"Name":"elective","Count":5,"Courses":["COSI 2A","COSI 33B","COSI 114A","COSI 127B","COSI 25A","COSI 65A","COSI 107A","COSI 119A"]}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Selections []struct {
			Courses   []string `json:"courses"`
			GoalPaths int64    `json:"goalPaths"`
		} `json:"selections"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Selections) == 0 {
		t.Fatal("no selections scored")
	}
	for i := 1; i < len(out.Selections); i++ {
		if out.Selections[i].GoalPaths > out.Selections[i-1].GoalPaths {
			t.Error("selections out of order")
		}
	}
	if out.Selections[0].GoalPaths == 0 {
		t.Error("best selection preserves no goal paths")
	}
	resp, _ = post(t, ts, "/api/v1/explore/whatif", `{"query":{"start":"x","end":"y"},"goal":{"courses":["COSI 11A"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("bad terms accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Generate traffic: two explorations and one error.
	post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Spring 2015","end":"Fall 2015","maxPerTerm":2,"countOnly":true}}`)
	post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Spring 2015","end":"Fall 2015","maxPerTerm":2,"countOnly":true}}`)
	post(t, ts, "/api/v1/explore/goal", `not json`)

	resp, body := get(t, ts, "/api/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st struct {
		Total     int `json:"total"`
		Errors    int `json:"errors"`
		Endpoints []struct {
			Endpoint string  `json:"endpoint"`
			Requests int     `json:"requests"`
			P50Ms    float64 `json:"p50Ms"`
		} `json:"endpoints"`
		TopWindows []struct {
			Window string `json:"window"`
			Count  int    `json:"count"`
		} `json:"topWindows"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Errors != 1 {
		t.Errorf("total=%d errors=%d", st.Total, st.Errors)
	}
	// Tenant-prefixed traffic aggregates under the bare canonical endpoint.
	if len(st.Endpoints) == 0 || st.Endpoints[0].Endpoint != "POST /api/v1/explore/deadline" ||
		st.Endpoints[0].Requests != 2 {
		t.Errorf("endpoints = %+v", st.Endpoints)
	}
	if len(st.TopWindows) != 1 || st.TopWindows[0].Window != "Spring 2015 → Fall 2015" ||
		st.TopWindows[0].Count != 2 {
		t.Errorf("windows = %+v", st.TopWindows)
	}
}

func TestUIPage(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("UI status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"CourseNavigator", "/api/v1/explore/ranked", "Top-k"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("UI page missing %q", want)
		}
	}
	// Only the exact root serves the page.
	resp, _ = get(t, ts, "/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-root path status %d", resp.StatusCode)
	}
}

func BenchmarkServerRankedEndpoint(b *testing.B) {
	nav, _ := coursenav.Brandeis()
	ts := httptest.NewServer(New(nav))
	defer ts.Close()
	body := `{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},
	          "goal":{"courses":["COSI 11A","COSI 21A","COSI 127B"]},
	          "ranking":"time","k":10}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/api/v1/explore/ranked", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestCountOnlyDAGStats: countOnly requests run on the interned-status
// DAG substrate — the response summary says so — and the usage stats
// surface the dagAnswered/dagNodes counters.
func TestCountOnlyDAGStats(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/api/v1/explore/goal",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3,"countOnly":true},"goal":{"courses":["COSI 21A"]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("countOnly status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Summary struct {
			Nodes int64 `json:"nodes"`
			DAG   bool  `json:"dag"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Summary.DAG {
		t.Error("countOnly summary not marked dag")
	}
	if out.Summary.Nodes == 0 {
		t.Error("countOnly summary reports zero distinct statuses")
	}

	// A materialising run stays on the tree and is not marked.
	resp, body = post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Spring 2015","end":"Fall 2015","maxPerTerm":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline status %d", resp.StatusCode)
	}
	var mat struct {
		Summary struct {
			DAG bool `json:"dag"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &mat); err != nil {
		t.Fatal(err)
	}
	if mat.Summary.DAG {
		t.Error("materialising run marked dag")
	}

	resp, body = get(t, ts, "/api/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st struct {
		DAGAnswered int   `json:"dagAnswered"`
		DAGNodes    int64 `json:"dagNodes"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.DAGAnswered != 1 {
		t.Errorf("stats dagAnswered = %d, want 1", st.DAGAnswered)
	}
	if st.DAGNodes != out.Summary.Nodes {
		t.Errorf("stats dagNodes = %d, want the run's %d", st.DAGNodes, out.Summary.Nodes)
	}
}

// TestDeadlineCountOnlySaturates: a countOnly request whose path count
// passes MaxInt64 answers MaxInt64, never a wrapped negative. The catalog
// has one status with 2^62 − 1 selections: AA 1 and AA 2 are offered in
// Fall 2011 and Spring 2012, and 62 courses without prerequisites only in
// Fall 2012, so Fall 2011 → Spring 2013 has 3·(2^62 − 1) paths.
func TestDeadlineCountOnlySaturates(t *testing.T) {
	cal := term.TwoSeason
	f11, s12, f12 := cal.MustTerm(2011, term.Fall), cal.MustTerm(2012, term.Spring), cal.MustTerm(2012, term.Fall)
	b := catalog.NewBuilder(cal).
		Add(catalog.Course{ID: "AA 1", Offered: []term.Term{f11, s12}}).
		Add(catalog.Course{ID: "AA 2", Offered: []term.Term{f11, s12}})
	for i := 0; i < 62; i++ {
		b.Add(catalog.Course{ID: fmt.Sprintf("XX %d", 100+i), Offered: []term.Term{f12}})
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(coursenav.NewFromCatalog(cat)))
	t.Cleanup(ts.Close)
	resp, body := post(t, ts, "/api/v1/explore/deadline",
		`{"query":{"start":"Fall 2011","end":"Spring 2013","countOnly":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Summary struct {
			Paths int64 `json:"paths"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.Paths != math.MaxInt64 {
		t.Errorf("paths = %d, want MaxInt64: %s", out.Summary.Paths, body)
	}
}
