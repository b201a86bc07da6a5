package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/brandeis"
	"repro/internal/cohort"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/term"
)

// Request kinds. The explore kinds map to the /explore endpoints; the
// rest are the options, audit, cohort, reload and stats surfaces.
const (
	kCount    = "count"    // goal countOnly (DAG)
	kDeadline = "deadline" // deadline countOnly (DAG)
	kGoal     = "goal"     // materialised goal graph (tree)
	kRanked   = "ranked"   // top-k best-first
	kWhatIf   = "whatif"   // selection comparison
	kOptions  = "options"
	kAudit    = "audit"
	kStream   = "stream" // goal graph streamed as NDJSON
	kCohort   = "cohort"
	kReload   = "reload"
	kStats    = "stats"
)

// request is one generated operation: the exact bytes the server receives
// plus the canonical input the checker and the traced run replay
// directly against the library.
type request struct {
	ID     int
	Kind   string
	Tenant string // "" is the default tenant
	Method string
	Path   string
	Body   []byte
	// Due is the send time relative to the phase start (open loop only).
	Due time.Duration
	// Key identifies the canonical request: equal keys must get equal
	// answers.
	Key string
	// Explore is the canonical explore input (explore kinds).
	Explore *server.ExploreRequest
	// Job is the canonical cohort job (cohort kind); Warm marks a repeat
	// of the previous job.
	Job  *cohortJob
	Warm bool
}

func (r *request) isExplore() bool { return r.Explore != nil }

// world holds the catalogs the workloads run on. Catalog shapes are
// fixed; only the request streams depend on the seed.
type world struct {
	brandeis *coursenav.Navigator
	major    coursenav.Goal
	wide     *coursenav.Navigator
	deep     *coursenav.Navigator
	first    term.Term // Fall 2011, the first scheduled term
	last     term.Term // Fall 2015, the last scheduled term
}

// Generated catalog shapes (Zuev & Stavrinides: prerequisite breadth and
// depth drive how many statuses a query touches). Both are wider than
// the 38-course Brandeis catalog.
var (
	wideParams = datagen.Params{Courses: 48, IntroFraction: 0.25, Layers: 3, OrProb: 0.3, Terms: 9, OfferProb: 0.35, Seed: 101}
	deepParams = datagen.Params{Courses: 44, IntroFraction: 0.07, Layers: 7, OrProb: 0.2, Terms: 9, OfferProb: 0.5, Seed: 202}
)

func newWorld() (*world, error) {
	nav, major := coursenav.Brandeis()
	w := &world{brandeis: nav, major: major, first: brandeis.FirstTerm(), last: brandeis.EndTerm()}
	for _, g := range []struct {
		p   datagen.Params
		dst **coursenav.Navigator
	}{{wideParams, &w.wide}, {deepParams, &w.deep}} {
		cat, err := datagen.Generate(g.p)
		if err != nil {
			return nil, err
		}
		*g.dst = coursenav.NewFromCatalog(cat)
	}
	return w, nil
}

func (w *world) nav(tenant string) *coursenav.Navigator {
	switch tenant {
	case "wide":
		return w.wide
	case "deep":
		return w.deep
	}
	return w.brandeis
}

func tenantPrefix(tenant string) string {
	if tenant == "" {
		return "/api/v1"
	}
	return "/api/v1/t/" + tenant
}

// ---- interactive traffic ----------------------------------------------

// position is one student's state: completed courses and the semester
// their remaining plan starts in.
type position struct {
	completed []string // canonical, sorted
	start     string
	goal      []string // the courses this student is aiming for
	ranking   string
}

// interactiveMix weighs the interactive kinds (per 100 requests).
var interactiveMix = []struct {
	kind   string
	weight int
}{
	{kCount, 35}, {kDeadline, 10}, {kGoal, 8}, {kRanked, 15},
	{kWhatIf, 12}, {kOptions, 8}, {kAudit, 7}, {kStream, 5},
}

// pool is the interactive key space: a seeded set of student positions,
// drawn Zipf-wise so a few students dominate and a long tail arrives
// cold. The canonical keys (positions × kinds) fit the result cache.
type pool struct {
	w   *world
	pos []position
}

// poolSize and zipfS shape the interactive key popularity. The pool
// itself is fixed (poolSeed), so every seed warms and hits the same
// popular students; the seed draws the traffic over it.
const (
	poolSize = 1500
	zipfS    = 1.5
	poolSeed = 1
)

func newPool(w *world) (*pool, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	cat := w.brandeis.Catalog()
	members, err := cohort.Synthesize(cat, w.major.Inner(), w.first, w.last, brandeis.MaxPerTerm, poolSize, rng)
	if err != nil {
		return nil, err
	}
	targets := append(brandeis.CoreCourses(), brandeis.ElectiveCourses()...)
	p := &pool{w: w}
	for _, m := range members {
		done := map[string]bool{}
		for _, c := range m.Completed {
			done[c] = true
		}
		var open []string
		for _, c := range targets {
			if !done[c] {
				open = append(open, c)
			}
		}
		var goal []string
		for len(goal) < 2 && len(open) > 0 {
			i := rng.Intn(len(open))
			goal = append(goal, open[i])
			open = append(open[:i], open[i+1:]...)
		}
		sort.Strings(goal)
		ranking := "time"
		if rng.Intn(2) == 1 {
			ranking = "workload"
		}
		p.pos = append(p.pos, position{completed: m.Completed, start: m.Start, goal: goal, ranking: ranking})
	}
	return p, nil
}

// zipf draws indices of the first n positions with the pool's
// popularity skew.
func (p *pool) zipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, 1, uint64(min(n, len(p.pos))-1))
}

func pickKind(rng *rand.Rand) string {
	total := 0
	for _, m := range interactiveMix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range interactiveMix {
		if n < m.weight {
			return m.kind
		}
		n -= m.weight
	}
	return kCount
}

// capTerm returns start+n semesters, capped at last.
func capTerm(start string, n int, last term.Term) string {
	t, err := term.Parse(term.TwoSeason, start)
	if err != nil {
		return start
	}
	e := t.Add(n)
	if e.After(last) {
		e = last
	}
	return e.Label()
}

// build renders position i as a request of the given kind. The wire form
// varies list order and letter case (the server canonicalises both); the
// key and the canonical input do not.
func (p *pool) build(rng *rand.Rand, id, i int, kind string) *request {
	ps := p.pos[i]
	r := &request{ID: id, Kind: kind}
	end := p.w.last.Label()
	switch kind {
	case kOptions:
		q := url.Values{}
		q.Set("term", ps.start)
		q.Set("completed", strings.Join(shuffle(rng, ps.completed), ","))
		r.Method, r.Path = "GET", "/api/v1/options?"+q.Encode()
		r.Key = fmt.Sprintf("%s|%d", kind, i)
		return r
	case kAudit:
		body := map[string]any{
			"completed": shuffle(rng, ps.completed),
			"goal": map[string]any{"degree": []coursenav.DegreeGroup{
				{Name: "core", Count: 7, Courses: brandeis.CoreCourses()},
				{Name: "elective", Count: 5, Courses: brandeis.ElectiveCourses()},
			}},
			"now": ps.start, "deadline": end, "maxPerTerm": brandeis.MaxPerTerm,
		}
		r.Method, r.Path, r.Body = "POST", "/api/v1/audit", mustJSON(body)
		r.Key = fmt.Sprintf("%s|%d", kind, i)
		return r
	}
	// Windows of two or three semesters keep the engine's cold tail at a
	// few milliseconds on this catalog, and the rendered graphs small.
	ex := &server.ExploreRequest{Query: server.QuerySpec{Completed: ps.completed, Start: ps.start,
		End: capTerm(ps.start, 2, p.w.last), MaxPerTerm: brandeis.MaxPerTerm}}
	path := "/explore/goal"
	switch kind {
	case kCount:
		ex.Query.CountOnly = true
		ex.Query.End = capTerm(ps.start, 3, p.w.last)
	case kDeadline:
		ex.Query.CountOnly = true
		path = "/explore/deadline"
	case kGoal, kStream:
		ex.Query.MaxPerTerm = 2
	case kRanked:
		ex.Ranking, ex.K = ps.ranking, 3
		ex.Query.End = capTerm(ps.start, 3, p.w.last)
		path = "/explore/ranked"
	case kWhatIf:
		path = "/explore/whatif"
	}
	if kind != kDeadline {
		ex.Goal = &server.GoalSpec{Courses: ps.goal}
	}
	r.Explore = ex
	r.Method, r.Path = "POST", "/api/v1"+path
	if kind == kStream {
		r.Path += "?stream=1"
	}
	r.Body = mustJSON(scrambled(rng, ex))
	r.Key = fmt.Sprintf("%s|%d", kind, i)
	return r
}

// shuffle returns ids in a random order. The options and audit surfaces
// take course IDs as spelled, so only their order varies.
func shuffle(rng *rand.Rand, ids []string) []string {
	out := append([]string(nil), ids...)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// scramble returns ids shuffled with some lower-cased; the explore
// endpoints resolve both.
func scramble(rng *rand.Rand, ids []string) []string {
	out := shuffle(rng, ids)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = strings.ToLower(out[i])
		}
	}
	return out
}

// scrambled is ex with its course lists reordered and re-cased.
func scrambled(rng *rand.Rand, ex *server.ExploreRequest) *server.ExploreRequest {
	cp := *ex
	cp.Query.Completed = scramble(rng, ex.Query.Completed)
	if ex.Goal != nil {
		g := *ex.Goal
		g.Courses = scramble(rng, ex.Goal.Courses)
		cp.Goal = &g
	}
	return &cp
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only generator-built values are marshalled
	}
	return b
}

// openSeq generates n open-loop requests: Poisson arrivals at rate per
// second, keys drawn Zipf-wise from the first positions of the pool (all
// of it when positions is 0). IDs start at firstID.
func (p *pool) openSeq(seed int64, firstID, n int, rate float64, positions int) []*request {
	if positions == 0 {
		positions = len(p.pos)
	}
	rng := rand.New(rand.NewSource(seed))
	z := p.zipf(rng, positions)
	out := make([]*request, 0, n)
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		kind := pickKind(rng)
		if positions < len(p.pos) && kind == kStream {
			kind = kGoal // streams are never cached; keep the hot set hot
		}
		r := p.build(rng, firstID+i, int(z.Uint64()), kind)
		r.Due = at
		out = append(out, r)
	}
	return out
}

// hotKeys returns one request per kind for the most popular positions,
// the warm-up set.
func (p *pool) hotKeys(n int) []*request {
	rng := rand.New(rand.NewSource(1))
	var out []*request
	for i := 0; i < n && i < len(p.pos); i++ {
		for _, m := range interactiveMix {
			if m.kind != kStream {
				out = append(out, p.build(rng, -1, i, m.kind))
			}
		}
	}
	return out
}

// ---- cold-engine traffic -----------------------------------------------

// coldMix weighs the engine kinds of the cold workload.
var coldMix = []string{kCount, kCount, kDeadline, kGoal, kRanked, kWhatIf, kStream}

// coldGen yields unique-key engine requests alternating between the wide
// and the deep generated catalog.
type coldGen struct {
	w    *world
	rng  *rand.Rand
	seen map[string]bool
	next int
}

func newColdGen(w *world, seed int64) *coldGen {
	return &coldGen{w: w, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (g *coldGen) request() *request {
	for {
		r := g.candidate()
		if !g.seen[r.Key] {
			g.seen[r.Key] = true
			g.next++
			return r
		}
	}
}

func (g *coldGen) candidate() *request {
	rng := g.rng
	tenant := "wide"
	if rng.Intn(2) == 1 {
		tenant = "deep"
	}
	cat := g.w.nav(tenant).Catalog()
	n := cat.Len()
	kind := coldMix[rng.Intn(len(coldMix))]
	// Completed: a random quarter of the lower half.
	var completed []string
	for i := 0; i < n/2; i++ {
		if rng.Intn(4) == 0 {
			completed = append(completed, cat.ID(i))
		}
	}
	sort.Strings(completed)
	start := g.w.first.Add(rng.Intn(3))
	var goal []string
	for len(goal) < 2 {
		c := cat.ID(n/3 + rng.Intn(n-n/3))
		if len(goal) == 0 || goal[0] != c {
			goal = append(goal, c)
		}
	}
	sort.Strings(goal)
	ex := &server.ExploreRequest{Query: server.QuerySpec{Completed: completed, Start: start.Label(), MaxPerTerm: 3}}
	// Windows of two or three semesters keep every kind well inside the
	// node budget on both catalogs, and the slowest requests within tens
	// of milliseconds, while the counting kinds still touch thousands of
	// statuses.
	path := "/explore/goal"
	span := 3
	switch kind {
	case kCount:
		ex.Query.CountOnly = true
	case kDeadline:
		ex.Query.CountOnly = true
		path = "/explore/deadline"
	case kGoal, kStream:
		ex.Query.MaxPerTerm = 2
		span = 2
	case kRanked:
		ex.Ranking, ex.K = "workload", 3
		path = "/explore/ranked"
		ex.Query.MaxPerTerm = 2
	case kWhatIf:
		path = "/explore/whatif"
	}
	ex.Query.End = start.Add(span).Label()
	if kind != kDeadline {
		ex.Goal = &server.GoalSpec{Courses: goal}
	}
	r := &request{ID: g.next, Kind: kind, Tenant: tenant, Explore: ex, Method: "POST", Path: tenantPrefix(tenant) + path}
	if kind == kStream {
		r.Path += "?stream=1"
	}
	r.Body = mustJSON(ex)
	r.Key = tenant + "|" + kind + "|" + string(r.Body)
	return r
}

// ---- cohort traffic ----------------------------------------------------

// cohortJob is the canonical body of one POST /cohort job.
type cohortJob struct {
	Scenario   cohort.Scenario  `json:"scenario"`
	Synthesize synthesize       `json:"synthesize"`
	Query      server.QuerySpec `json:"query"`
	Goal       server.GoalSpec  `json:"goal"`
	Baseline   bool             `json:"baseline"`
	Horizon    int              `json:"horizon"`
	Workers    int              `json:"workers"`
}

type synthesize struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// Cohort job shape: hundreds of synthesized members, one or two
// cancelled offerings, a baseline count and a two-semester delay probe.
// Jobs ask for one pipeline worker: a job then costs one CPU's time, so
// its latency does not swing with how much of the machine's second CPU
// its neighbours leave free, and in mixed it leaves a CPU to the
// interactive traffic.
const (
	cohortMembers = 200
	cohortStart   = "Fall 2013"
	cohortWorkers = 1
)

// cohortGoal is every job's goal; only the scenario and the members vary.
const cohortGoal = "COSI 21A and COSI 29A"

// cohortGen alternates fresh scenarios (cold) with a repeat of the
// previous job (warm: every unit is a cache hit).
type cohortGen struct {
	w    *world
	rng  *rand.Rand
	prev *cohortJob
	next int
}

func newCohortGen(w *world, seed int64) *cohortGen {
	return &cohortGen{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (g *cohortGen) request() *request {
	warm := g.prev != nil && g.next%2 == 1
	job := g.prev
	if !warm {
		job = g.fresh()
		g.prev = job
	}
	r := &request{ID: g.next, Kind: kCohort, Method: "POST", Path: "/api/v1/cohort", Job: job, Warm: warm,
		Body: mustJSON(job)}
	r.Key = string(r.Body)
	g.next++
	return r
}

func (g *cohortGen) fresh() *cohortJob {
	rng := g.rng
	cat := g.w.brandeis.Catalog()
	first, _ := term.Parse(term.TwoSeason, cohortStart)
	core := brandeis.CoreCourses()
	var cancel []cohort.Change
	for len(cancel) < 1+rng.Intn(2) {
		id := core[rng.Intn(len(core))]
		if len(cancel) > 0 && cancel[0].Course == id {
			continue
		}
		ci, _ := cat.Index(id)
		var offered []string
		for _, sp := range cat.Specs()[ci].Offered {
			if t, err := term.Parse(term.TwoSeason, sp); err == nil && !t.Before(first) {
				offered = append(offered, sp)
			}
		}
		if len(offered) == 0 {
			continue
		}
		terms := []string{offered[rng.Intn(len(offered))]}
		cancel = append(cancel, cohort.Change{Course: id, Terms: terms})
	}
	sort.Slice(cancel, func(a, b int) bool { return cancel[a].Course < cancel[b].Course })
	return &cohortJob{
		Scenario:   cohort.Scenario{Cancel: cancel},
		Synthesize: synthesize{N: cohortMembers, Seed: rng.Int63n(1 << 30)},
		Query:      server.QuerySpec{Start: cohortStart, End: g.w.last.Label(), MaxPerTerm: brandeis.MaxPerTerm},
		Goal:       server.GoalSpec{Expr: cohortGoal},
		Baseline:   true,
		Horizon:    2,
		Workers:    cohortWorkers,
	}
}

// reloadRequest reloads tenant ("" is the default tenant), which must host
// the Brandeis catalog from the registrar dump.
func reloadRequest(id int, tenant string) *request {
	return &request{ID: id, Kind: kReload, Tenant: tenant, Method: "POST", Path: tenantPrefix(tenant) + "/admin/reload", Key: kReload}
}

func statsRequest(id int) *request {
	return &request{ID: id, Kind: kStats, Method: "GET", Path: "/api/v1/stats"}
}
