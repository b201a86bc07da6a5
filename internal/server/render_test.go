package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/cohort"
)

// renderGen draws random values of every rendered shape from a pool of
// strings and floats that covers encoding/json's escaping and float
// formatting rules, nil against empty slices, and unset optional fields.
type renderGen struct {
	rng     *rand.Rand
	strs    []string
	floats  []float64
	refused bool // draw NaN and ±Inf too
}

func newRenderGen(seed int64, strs []string, floats []float64, refused bool) *renderGen {
	return &renderGen{
		rng: rand.New(rand.NewSource(seed)),
		strs: append([]string{"", "COSI 11A", "Fall 2013", "max-nodes", "A<1>", `B&"2"\`, "C\xe2\x80\xa8x\xe2\x80\xa9",
			"D\x01\t\n\r\b\f\x1f", "E\xffz", "\xc3\xa9t\xc3\xa9", "\xed\xa0\x80", "\x7f", "\xf0\x9f\x98\x80"}, strs...),
		floats: append([]float64{0, 1, -1, 0.5, 1.0 / 3, 2.5e-7, 1e-6, 9.99e-7, 1e20, 1e21, 123456789.123,
			-4.25e22, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1)}, floats...),
		refused: refused,
	}
}

func (g *renderGen) str() string { return g.strs[g.rng.Intn(len(g.strs))] }

func (g *renderGen) float() float64 {
	if g.refused && g.rng.Intn(8) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
	}
	return g.floats[g.rng.Intn(len(g.floats))]
}

func (g *renderGen) maybeFloat() float64 {
	if g.rng.Intn(3) == 0 {
		return 0
	}
	return g.float()
}

func (g *renderGen) int() int64 {
	return []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 40}[g.rng.Intn(7)]
}

// strList returns nil, an empty list or a few strings.
func (g *renderGen) strList() []string {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.rng.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g *renderGen) summary() coursenav.Summary {
	return coursenav.Summary{
		Paths: g.int(), GoalPaths: g.int(), Nodes: g.int(), Edges: g.int(),
		PrunedTime: g.int(), PrunedAvail: g.int(),
		Elapsed:   time.Duration(g.rng.Int63n(int64(time.Hour))),
		Stopped:   []string{"", "", "canceled", "deadline", g.str()}[g.rng.Intn(5)],
		Truncated: g.rng.Intn(2) == 0,
		DAG:       g.rng.Intn(2) == 0,
	}
}

func (g *renderGen) summaryBody() summaryBody {
	b := toSummaryBody(g.summary())
	if g.rng.Intn(2) == 0 {
		b.ElapsedMs = g.float()
	}
	return b
}

func (g *renderGen) path() coursenav.Path {
	var p coursenav.Path
	if g.rng.Intn(5) > 0 {
		p.Semesters = make([]coursenav.Selection, g.rng.Intn(4))
		for i := range p.Semesters {
			p.Semesters[i] = coursenav.Selection{Term: g.str(), Courses: g.strList()}
		}
	}
	p.Cost, p.Value = g.maybeFloat(), g.maybeFloat()
	return p
}

func (g *renderGen) impact() coursenav.SelectionImpact {
	return coursenav.SelectionImpact{Courses: g.strList(), GoalPaths: g.int(), Paths: g.int(), NextOptions: int(g.int())}
}

func (g *renderGen) impacts() []coursenav.SelectionImpact {
	if g.rng.Intn(4) == 0 {
		return nil
	}
	out := make([]coursenav.SelectionImpact, g.rng.Intn(4))
	for i := range out {
		out[i] = g.impact()
	}
	return out
}

func (g *renderGen) member() cohort.MemberRecord {
	m := cohort.MemberRecord{
		Student: g.str(), GoalPaths: g.int(), Affected: g.rng.Intn(2) == 0,
		Delay: int(g.int()), Stranded: g.rng.Intn(2) == 0, Error: g.str(),
	}
	if g.rng.Intn(2) == 0 {
		b := g.int()
		m.Baseline = &b
	}
	if g.rng.Intn(2) == 0 {
		r := g.float()
		m.Reliability = &r
	}
	if g.rng.Intn(2) == 0 {
		// A replan is a whatif body the renderer wrote, spliced in as is.
		m.Replan = bytes.TrimSpace(appendWhatIf(nil, whatIfResponse{Selections: g.impacts(), Stopped: g.str()}))
	}
	return m
}

func (g *renderGen) cohortSummary() cohort.Summary {
	s := cohort.Summary{
		Members: int(g.int()), Affected: int(g.int()), Delayed: int(g.int()), Stranded: int(g.int()),
		Errors: int(g.int()), MeanDelay: g.float(), Units: g.int(), Coalesced: g.int(),
	}
	switch g.rng.Intn(3) {
	case 0:
		s.DelayHistogram = []int{}
	case 1:
		s.DelayHistogram = []int{int(g.int()), 0, 3}
	}
	if g.rng.Intn(2) == 0 {
		r := g.float()
		s.MeanReliability = &r
	}
	return s
}

func (g *renderGen) request() *ExploreRequest {
	req := &ExploreRequest{Query: QuerySpec{
		Completed: g.strList(), Start: g.str(), End: g.str(), MaxPerTerm: int(g.int()),
		Avoid: g.strList(), MaxTermWorkload: g.maybeFloat(), MinPerTerm: int(g.int()),
		MaxPathCost: g.maybeFloat(), CountOnly: g.rng.Intn(2) == 0,
	}}
	if g.rng.Intn(3) > 0 {
		req.Goal = &GoalSpec{Courses: g.strList()}
		if g.rng.Intn(2) == 0 {
			req.Goal.Expr = g.str()
		}
		if n := g.rng.Intn(3); n > 0 || g.rng.Intn(2) == 0 {
			req.Goal.Degree = make([]coursenav.DegreeGroup, n)
			for i := range req.Goal.Degree {
				req.Goal.Degree[i] = coursenav.DegreeGroup{Name: g.str(), Count: int(g.int()), Courses: g.strList()}
			}
		}
	}
	if g.rng.Intn(2) == 0 {
		req.Budget = &BudgetSpec{}
		for _, f := range []*int64{&req.Budget.TimeoutMs, &req.Budget.MaxNodes, &req.Budget.MaxPaths} {
			if g.rng.Intn(2) == 0 {
				*f = g.int()
			}
		}
	}
	if g.rng.Intn(2) == 0 {
		req.Ranking = g.str()
	}
	if n := g.rng.Intn(3); n > 0 || g.rng.Intn(2) == 0 {
		req.Weights = make([]coursenav.Weight, n)
		for i := range req.Weights {
			req.Weights[i] = coursenav.Weight{Ranking: g.str(), Weight: g.float()}
		}
	}
	if g.rng.Intn(2) == 0 {
		req.K = int(g.int())
	}
	return req
}

// matchMarshal checks one appender's output against json.Marshal of the
// same value (plus the newline an Encoder adds, when nl): equal bytes,
// or the same error with nothing appended.
func matchMarshal(t *testing.T, name string, got []byte, gotErr error, v any, nl bool) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if nl && wantErr == nil {
		want = append(want, '\n')
	}
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Fatalf("%s: error %v, encoding/json %v", name, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() || len(got) != len("prefix") {
			t.Fatalf("%s: error %q leaving %q, encoding/json %q", name, gotErr, got, wantErr)
		}
	case !bytes.Equal(got[len("prefix"):], want):
		t.Fatalf("%s:\nrendered      %s\nencoding/json %s", name, got[len("prefix"):], want)
	}
}

// checkRenderers holds every server appender to encoding/json on values
// drawn from g.
func checkRenderers(t *testing.T, g *renderGen) {
	t.Helper()
	pre := func() []byte { return []byte("prefix") }

	sb := g.summaryBody()
	got, err := appendSummary(pre(), sb)
	matchMarshal(t, "summary", got, err, sb, false)
	got, err = appendSummaryRecord(pre(), summaryRecord{Summary: sb})
	matchMarshal(t, "summary record", got, err, summaryRecord{Summary: sb}, true)

	var paths []coursenav.Path
	if g.rng.Intn(4) > 0 {
		paths = make([]coursenav.Path, g.rng.Intn(4))
		for i := range paths {
			paths[i] = g.path()
		}
	}
	rr := rankedResponse{Summary: sb, Paths: paths}
	got, err = appendRanked(pre(), rr)
	matchMarshal(t, "ranked", got, err, rr, true)

	pr := pathRecord{Path: coursenav.StreamedPath{Path: g.path(), Goal: g.rng.Intn(2) == 0}}
	got, err = appendPathRecord(pre(), pr)
	matchMarshal(t, "path record", got, err, pr, true)

	sr := selectionRecord{Selection: g.impact()}
	matchMarshal(t, "selection record", appendSelectionRecord(pre(), sr), nil, sr, true)

	wr := whatIfResponse{Selections: g.impacts(), Stopped: g.str()}
	matchMarshal(t, "whatif", appendWhatIf(pre(), wr), nil, wr, true)

	ws := whatIfSummaryRecord{Summary: whatIfStreamSummary{Selections: g.int(), Stopped: g.str()}}
	matchMarshal(t, "whatif summary record", appendWhatIfSummaryRecord(pre(), ws), nil, ws, true)

	eb := errorBody{Error: errorInfo{Code: g.str(), Message: g.str(), Detail: g.str()}}
	matchMarshal(t, "error record", appendErrorRecord(pre(), eb), nil, eb, true)

	mr := cohortMemberRecord{Member: g.member()}
	got, err = appendMemberRecord(pre(), mr)
	matchMarshal(t, "member record", got, err, mr, true)

	cs := cohortSummaryRecord{Summary: g.cohortSummary()}
	got, err = appendCohortSummaryRecord(pre(), cs)
	matchMarshal(t, "cohort summary record", got, err, cs, true)

	var gp []int64
	if g.rng.Intn(4) > 0 {
		gp = make([]int64, g.rng.Intn(5))
		for i := range gp {
			gp[i] = g.int()
		}
	}
	hb := horizonBody{GoalPaths: gp}
	matchMarshal(t, "horizon body", appendHorizonBody(pre(), hb), nil, hb, true)
}

// checkRequestKey holds the canonical request encoding behind every
// cache and estimator key to json.Marshal.
func checkRequestKey(t *testing.T, g *renderGen) {
	t.Helper()
	req := g.request()
	got, err := appendExploreRequest([]byte("prefix"), req)
	if err != nil {
		got = got[:len("prefix")] // the key is discarded on error
	}
	matchMarshal(t, "explore request", got, err, req, false)
}

func TestRenderersMatchEncodingJSON(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		checkRenderers(t, newRenderGen(seed, nil, nil, seed%2 == 1))
		checkRequestKey(t, newRenderGen(seed, nil, nil, seed%2 == 1))
	}
}

// renderSeeds seeds the render fuzzers with strings and floats from
// every escaping and formatting rule.
func renderSeeds(f *testing.F) {
	f.Add(int64(1), "COSI 11A", "<&>", 0.1, 1e21)
	f.Add(int64(2), "\xe2\x80\xa8", "\xff\xfe", 1e-7, -0.0)
	f.Add(int64(3), "\x00", `"\`, math.NaN(), math.Inf(-1))
}

// FuzzRenderRecords holds the response renderer — ranked, what-if and
// horizon bodies, every NDJSON record and cohort records — to
// encoding/json on random values over arbitrary strings and floats.
func FuzzRenderRecords(f *testing.F) {
	renderSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, s1, s2 string, f1, f2 float64) {
		checkRenderers(t, newRenderGen(seed, []string{s1, s2, s1 + s2}, []float64{f1, f2}, true))
	})
}

// FuzzExploreKey holds the canonical request encoding to json.Marshal
// on random requests — degree groups, weights, budgets — over arbitrary
// strings and floats, so no cache or estimator key can drift.
func FuzzExploreKey(f *testing.F) {
	renderSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, s1, s2 string, f1, f2 float64) {
		checkRequestKey(t, newRenderGen(seed, []string{s1, s2, s1 + s2}, []float64{f1, f2}, true))
	})
}

// TestExploreBodyFraming: the explore envelope frames the summary and
// the graph document exactly as the body was framed around
// encoding/json's output — the document's own trailing newline inside
// the envelope, "truncated" only when MaxResponseNodes cut it.
func TestExploreBodyFraming(t *testing.T) {
	nav, _ := coursenav.Brandeis()
	s := New(nav)
	q := s.query(QuerySpec{Completed: []string{"COSI 11A", "COSI 12B"}, Start: "Fall 2013", End: "Fall 2014", MaxPerTerm: 2}, nil)
	g, sum, err := nav.Deadline(q)
	if err != nil {
		t.Fatal(err)
	}
	sumJSON, err := json.Marshal(toSummaryBody(sum))
	if err != nil {
		t.Fatal(err)
	}
	for _, maxNodes := range []int{1, 3, g.Stats().Nodes, DefaultMaxResponseNodes} {
		s.MaxResponseNodes = maxNodes
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc, maxNodes); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("{\"summary\":%s,\"graph\":%s", sumJSON, doc.Bytes())
		if g.Stats().Nodes > maxNodes {
			want += ",\"truncated\":true"
		}
		want += "}\n"
		got, err := s.appendExploreBody(nil, sum, g)
		if err != nil || string(got) != want {
			t.Fatalf("maxNodes %d: %v\n%s\nwant\n%s", maxNodes, err, got, want)
		}
	}
	got, err := s.appendExploreBody(nil, sum, nil)
	if want := fmt.Sprintf("{\"summary\":%s}\n", sumJSON); err != nil || string(got) != want {
		t.Fatalf("countOnly envelope: %v %q, want %q", err, got, want)
	}
}

// TestHorizonBodyRoundTrip: a horizon unit body reads back exactly as
// it was rendered.
func TestHorizonBodyRoundTrip(t *testing.T) {
	for _, h := range []horizonBody{
		{GoalPaths: []int64{0}},
		{GoalPaths: []int64{12, 0, 7, math.MaxInt64, math.MinInt64}},
		{GoalPaths: []int64{}},
		{GoalPaths: nil},
		{GoalPaths: []int64{3, -1}},
	} {
		body := appendHorizonBody(nil, h)
		got, err := parseHorizonBody(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if (got.GoalPaths == nil) != (h.GoalPaths == nil) || fmt.Sprint(got.GoalPaths) != fmt.Sprint(h.GoalPaths) {
			t.Errorf("%s read back as %+v, want %+v", body, got, h)
		}
	}
}

// TestHorizonBodyRejectsOtherShapes: anything but the rendered shape is
// an error, never a silent partial read.
func TestHorizonBodyRejectsOtherShapes(t *testing.T) {
	for _, body := range []string{
		``,
		"\n",
		`{"goalPaths":[1,2]}`, // no newline
		"{\"goalPaths\":[1,2]}\n\n",
		"{\"goalPaths\": [1,2]}\n",
		"{\"goalPaths\":[1, 2]}\n",
		"{\"goalPaths\":[1,2],}\n",
		"{\"goalPaths\":[,1]}\n",
		"{\"goalPaths\":[1,,2]}\n",
		"{\"goalPaths\":[1,2]\n",
		"{\"goalPaths\":[1\n",
		"{\"goalPaths\":[]]}\n",
		"{\"goalPaths\":nul}\n",
		"{\"goalPaths\":\"1\"}\n",
		"{\"goalPaths\":[01]}\n",
		"{\"goalPaths\":[-0]}\n",
		"{\"goalPaths\":[+1]}\n",
		"{\"goalPaths\":[-]}\n",
		"{\"goalPaths\":[1.5]}\n",
		"{\"goalPaths\":[1e3]}\n",
		"{\"goalPaths\":[9223372036854775808]}\n",
		"{\"goalPaths\":[-9223372036854775809]}\n",
		"{\"goalPaths\":[99999999999999999999]}\n",
		"{\"goalPaths\":[1],\"stopped\":\"\"}\n",
		"{\"goalPaths\":[1],\"stopped\":\"dead\\\"line\"}\n",
		"{\"goalPaths\":[1],\"stopped\":\"deadline}\n",
		"{\"goalPaths\":[1],\"stopped\":deadline}\n",
		"{\"goalPaths\":[1],\"stopped\":\"dead\nline\"}\n",
		"{\"goalPaths\":[1],\"other\":1}\n",
		"{\"stopped\":\"deadline\",\"goalPaths\":[1]}\n",
		"{\"summary\":{\"paths\":1}}\n",
		"{\"goalPaths\":[1]} \n",
		" {\"goalPaths\":[1]}\n",
	} {
		if h, err := parseHorizonBody([]byte(body)); err == nil {
			t.Errorf("%q parsed as %+v, want an error", body, h)
		}
	}
}
