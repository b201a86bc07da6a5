package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/term"
)

// renderGoldenFile pins the response bytes of every rendered body shape:
// the explore envelope and its graph document, ranked and what-if bodies,
// every NDJSON record kind, cohort records and cached replays (including
// entries a completed stream populated). The digests were recorded from
// the encoding/json renderer the server used before its appending
// renderer, with elapsedMs masked; any change to a body byte fails here.
const renderGoldenFile = "testdata/render_goldens.json"

// renderGolden is one recorded response.
type renderGolden struct {
	Status      int    `json:"status"`
	ContentType string `json:"contentType"`
	XCache      string `json:"xCache,omitempty"`
	Len         int    `json:"len"`
	SHA256      string `json:"sha256"`
}

// renderStep is one request of the golden sequence. Steps run in order
// on shared servers, so a repeated request replays the entry an earlier
// step left in the cache.
type renderStep struct {
	name   string
	srv    string // "main", "trunc3", "trunc1"
	method string
	path   string
	body   string
}

// oddCatalog has course IDs that exercise every escaping rule of the
// JSON string encoder: HTML characters, quotes and backslashes, a
// control byte, U+2028/U+2029 and invalid UTF-8.
func oddCatalog() *catalog.Catalog {
	f := term.TwoSeason.MustTerm(2013, term.Fall)
	all := []term.Term{f, f.Add(1), f.Add(2), f.Add(3)}
	cat, err := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "A<1>", Offered: all, Workload: 0.1}).
		Add(catalog.Course{ID: `B&"2"\`, Offered: all, Workload: 1e-7}).
		Add(catalog.Course{ID: "C\u2028x\u2029y", Prereq: expr.Course{ID: "A<1>"}, Offered: all[1:], Workload: 3.25}).
		Add(catalog.Course{ID: "D\x01\t\n", Offered: all[:2], Workload: 2.5e21}).
		Add(catalog.Course{ID: "E\xffz", Offered: all[2:], Workload: 12}).
		Build()
	if err != nil {
		panic(err)
	}
	return cat
}

func renderGoldenSteps() []renderStep {
	major := func() string {
		b, _ := json.Marshal([]coursenav.DegreeGroup{
			{Name: "core", Count: 7, Courses: brandeis.CoreCourses()},
			{Name: "elective", Count: 5, Courses: brandeis.ElectiveCourses()},
		})
		return string(b)
	}()
	var steps []renderStep
	add := func(name, srv, path, body string) {
		steps = append(steps, renderStep{name: name, srv: srv, method: http.MethodPost, path: path, body: body})
	}
	// Every explore endpoint, plain and streamed, on the three catalogs.
	type shape struct {
		prefix, completed, start, end, goal string
	}
	for _, c := range []struct {
		name string
		sh   shape
	}{
		{"brandeis", shape{"/api/v1", `["COSI 11A","COSI 12B"]`, "Fall 2013", "Fall 2014", `["COSI 21A","COSI 29A"]`}},
		{"wide", shape{"/api/v1/t/wide", `[]`, "Fall 2011", "Fall 2013", `["GEN 2A","GEN 3D"]`}},
		{"deep", shape{"/api/v1/t/deep", `[]`, "Spring 2012", "Spring 2014", `["GEN 1A","GEN 2A"]`}},
		{"odd", shape{"/api/v1/t/odd", `[]`, "Fall 2013", "Fall 2015", `["A<1>","C\u2028x\u2029y"]`}},
	} {
		sh := c.sh
		q := func(m int, extra string) string {
			return fmt.Sprintf(`{"start":%q,"end":%q,"completed":%s,"maxPerTerm":%d%s}`, sh.start, sh.end, sh.completed, m, extra)
		}
		goal := `{"courses":` + sh.goal + `}`
		for _, m := range []int{2, 3} {
			tag := fmt.Sprintf("%s/m%d", c.name, m)
			add(tag+"/deadline", "main", sh.prefix+"/explore/deadline", `{"query":`+q(m, "")+`}`)
			add(tag+"/deadline/count", "main", sh.prefix+"/explore/deadline", `{"query":`+q(m, `,"countOnly":true`)+`}`)
			add(tag+"/goal", "main", sh.prefix+"/explore/goal", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			add(tag+"/goal/count", "main", sh.prefix+"/explore/goal", `{"query":`+q(m, `,"countOnly":true`)+`,"goal":`+goal+`}`)
			add(tag+"/ranked/time", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"ranking":"time","k":4}`)
			add(tag+"/ranked/workload", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"ranking":"workload","k":4}`)
			add(tag+"/ranked/reliability", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"ranking":"reliability","k":3}`)
			add(tag+"/ranked/weights", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"weights":[{"Ranking":"time","Weight":0.75},{"Ranking":"workload","Weight":1e-3}],"k":3}`)
			add(tag+"/whatif", "main", sh.prefix+"/explore/whatif", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			// Streams first, then the same request plain: the plain one
			// replays the entry the completed stream populated.
			for _, ep := range []string{"deadline", "goal", "ranked"} {
				body := `{"query":` + q(m, `,"avoid":[]`) + `,"goal":` + goal + `}`
				switch ep {
				case "deadline":
					body = `{"query":` + q(m, `,"avoid":[]`) + `}`
				case "ranked":
					body = `{"query":` + q(m, `,"avoid":[]`) + `,"goal":` + goal + `,"ranking":"workload","k":5}`
				}
				add(tag+"/stream/"+ep, "main", sh.prefix+"/explore/"+ep+"?stream=1", body)
				add(tag+"/stream/"+ep+"/replay", "main", sh.prefix+"/explore/"+ep, body)
			}
			add(tag+"/stream/whatif", "main", sh.prefix+"/explore/whatif?stream=1", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			// Hits of the plain requests above.
			add(tag+"/goal/hit", "main", sh.prefix+"/explore/goal", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			add(tag+"/ranked/time/hit", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"ranking":"time","k":4}`)
			add(tag+"/whatif/hit", "main", sh.prefix+"/explore/whatif", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			// Truncated graphs: cut to three nodes, and to the root alone
			// (no edge survives: "edges": null).
			add(tag+"/goal/trunc3", "trunc3", sh.prefix+"/explore/goal", `{"query":`+q(m, "")+`,"goal":`+goal+`}`)
			add(tag+"/deadline/trunc1", "trunc1", sh.prefix+"/explore/deadline", `{"query":`+q(m, "")+`}`)
			// Budget-stopped runs: partial graph, partial stream.
			add(tag+"/deadline/budget", "main", sh.prefix+"/explore/deadline", `{"query":`+q(m, "")+`,"budget":{"maxPaths":3}}`)
			add(tag+"/goal/budget/count", "main", sh.prefix+"/explore/goal", `{"query":`+q(m, `,"countOnly":true`)+`,"goal":`+goal+`,"budget":{"maxNodes":5}}`)
			add(tag+"/stream/goal/budget", "main", sh.prefix+"/explore/goal?stream=1", `{"query":`+q(m, "")+`,"goal":`+goal+`,"budget":{"maxPaths":2}}`)
			add(tag+"/ranked/budget", "main", sh.prefix+"/explore/ranked", `{"query":`+q(m, "")+`,"goal":`+goal+`,"ranking":"time","k":4,"budget":{"maxNodes":3}}`)
			// Budget-stopped what-if, plain and streamed: a stop delivers
			// no candidate, only the reason.
			for _, b := range []struct{ name, budget string }{
				{"nodes", `{"maxNodes":5}`},
				{"paths", `{"maxPaths":3}`},
			} {
				body := `{"query":` + q(m, "") + `,"goal":` + goal + `,"budget":` + b.budget + `}`
				add(tag+"/whatif/budget/"+b.name, "main", sh.prefix+"/explore/whatif", body)
				add(tag+"/stream/whatif/budget/"+b.name, "main", sh.prefix+"/explore/whatif?stream=1", body)
			}
		}
	}
	// The paper's Table 1 query: the Brandeis major from an empty start,
	// Fall 2013 → Fall 2015, m = 3 — a 1 MB graph document.
	add("table1/goal", "main", "/api/v1/explore/goal",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},"goal":{"degree":`+major+`}}`)
	add("table1/goal/trunc3", "trunc3", "/api/v1/explore/goal",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},"goal":{"degree":`+major+`}}`)
	add("table1/goal/count", "main", "/api/v1/explore/goal",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3,"countOnly":true},"goal":{"degree":`+major+`}}`)
	add("major/ranked/reliability", "main", "/api/v1/explore/ranked",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},"goal":{"degree":`+major+`},"ranking":"reliability","k":5}`)
	add("major/whatif", "main", "/api/v1/explore/whatif",
		`{"query":{"completed":["COSI 11A"],"start":"Spring 2014","end":"Fall 2015","maxPerTerm":3},"goal":{"degree":`+major+`}}`)
	// Cohort jobs: baseline, Monte-Carlo sampling (reliability,
	// meanReliability), detail (the embedded replan), the delay probe,
	// explicit members with an error, on two catalogs.
	cohortQuery := `"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},"goal":{"courses":["COSI 21A","COSI 29A"]}`
	add("cohort/baseline", "main", "/api/v1/cohort",
		`{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},"synthesize":{"n":40,"seed":1},`+cohortQuery+`,"baseline":true}`)
	add("cohort/baseline/warm", "main", "/api/v1/cohort",
		`{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},"synthesize":{"n":40,"seed":1},`+cohortQuery+`,"baseline":true}`)
	add("cohort/samples", "main", "/api/v1/cohort",
		`{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}],"samples":4,"seed":3},"synthesize":{"n":12,"seed":2},`+cohortQuery+`,"baseline":true,"horizon":2}`)
	add("cohort/detail", "main", "/api/v1/cohort",
		`{"scenario":{},"synthesize":{"n":6,"seed":4},`+cohortQuery+`,"detail":true,"horizon":3}`)
	add("cohort/detail/scenario", "main", "/api/v1/cohort",
		`{"scenario":{"cancel":[{"course":"COSI 29A","terms":["Fall 2013"]}]},"synthesize":{"n":6,"seed":5},`+cohortQuery+`,"detail":true,"baseline":true}`)
	add("cohort/members", "main", "/api/v1/cohort",
		`{"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014"]}]},"members":[{"student":"x<&>","completed":["COSI 11A"],"start":"Spring 2014"},{"completed":[],"start":"Fall 2013"},{"student":"late","completed":[],"start":"Fall 2017"}],`+cohortQuery+`,"baseline":true,"detail":true}`)
	add("cohort/deep", "main", "/api/v1/t/deep/cohort",
		`{"scenario":{"cancel":[{"course":"GEN 2A","terms":["Fall 2012"]}],"samples":2},"synthesize":{"n":10,"seed":6},"query":{"start":"Spring 2012","end":"Spring 2014","maxPerTerm":3},"goal":{"courses":["GEN 1A","GEN 2A"]},"baseline":true,"horizon":2}`)
	// Error envelopes stay on encoding/json but are pinned all the same.
	add("error/unknown-course", "main", "/api/v1/explore/goal",
		`{"query":{"start":"Fall 2013","end":"Fall 2015"},"goal":{"courses":["NOPE <1>"]}}`)
	add("error/stream-count", "main", "/api/v1/explore/goal?stream=1",
		`{"query":{"start":"Fall 2013","end":"Fall 2015","countOnly":true},"goal":{"courses":["COSI 21A"]}}`)
	return steps
}

// renderGoldenBodies runs the golden sequence and returns each step's
// response with elapsedMs masked.
func renderGoldenBodies(t *testing.T) ([]renderStep, map[string]renderGolden) {
	t.Helper()
	newSrv := func(maxNodes int) *Server {
		nav, _ := coursenav.Brandeis()
		s := New(nav)
		s.MaxResponseNodes = maxNodes
		for _, tc := range []struct {
			id string
			p  datagen.Params
		}{
			{"wide", datagen.Params{Courses: 48, IntroFraction: 0.25, Layers: 3, OrProb: 0.3, Terms: 9, OfferProb: 0.35, Seed: 101}},
			{"deep", datagen.Params{Courses: 44, IntroFraction: 0.07, Layers: 7, OrProb: 0.2, Terms: 9, OfferProb: 0.5, Seed: 202}},
		} {
			cat, err := datagen.Generate(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			n := coursenav.NewFromCatalog(cat)
			if st := s.AddTenant(tc.id, func() (*coursenav.Navigator, *coursenav.ImportReport, error) { return n, nil, nil }, 0); !st.OK {
				t.Fatalf("AddTenant(%s): %s", tc.id, st.Reason)
			}
		}
		odd := coursenav.NewFromCatalog(oddCatalog())
		if st := s.AddTenant("odd", func() (*coursenav.Navigator, *coursenav.ImportReport, error) { return odd, nil, nil }, 0); !st.OK {
			t.Fatalf("AddTenant(odd): %s", st.Reason)
		}
		return s
	}
	srvs := map[string]*Server{"main": newSrv(DefaultMaxResponseNodes), "trunc3": newSrv(3), "trunc1": newSrv(1)}
	steps := renderGoldenSteps()
	out := make(map[string]renderGolden, len(steps))
	for _, st := range steps {
		if _, dup := out[st.name]; dup {
			t.Fatalf("duplicate golden step %s", st.name)
		}
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srvs[st.srv].ServeHTTP(w, req)
		body := []byte(maskElapsed(w.Body.Bytes()))
		sum := sha256.Sum256(body)
		out[st.name] = renderGolden{
			Status:      w.Code,
			ContentType: w.Header().Get("Content-Type"),
			XCache:      w.Header().Get("X-Cache"),
			Len:         len(body),
			SHA256:      hex.EncodeToString(sum[:]),
		}
	}
	return steps, out
}

// TestRenderGoldens: every rendered body is byte-identical to the one
// recorded before the appending renderer replaced encoding/json.
func TestRenderGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the 1 MB Table 1 graph and runs several cohort jobs")
	}
	raw, err := os.ReadFile(renderGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]renderGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	steps, got := renderGoldenBodies(t)
	if len(want) != len(steps) {
		t.Errorf("%d goldens recorded, %d steps run", len(want), len(steps))
	}
	for _, st := range steps {
		w, ok := want[st.name]
		if !ok {
			t.Errorf("%s: no golden recorded", st.name)
			continue
		}
		if g := got[st.name]; g != w {
			t.Errorf("%s: got %+v, want %+v", st.name, g, w)
		}
	}
}
