package cohort_test

// Diverse-cohort measurement harness behind the EXPERIMENTS.md
// shared-substrate numbers. The synthetic catalog is deliberately
// choice-rich (every mid-tier course has an or-prereq) so a cohort's
// members hold genuinely distinct positions: the regime where a
// per-unit count would rebuild a DAG per member and the shared
// substrate amortises across them. Member synthesis costs ~60 s per
// 1000 students, so these benchmarks are not part of the bench gate —
// run them explicitly with -benchtime 1x.

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	coursenav "repro"
	"repro/internal/cohort"
	"repro/internal/term"
	"repro/internal/transcript"
)

func buildDiverseNav(tb testing.TB) *coursenav.Navigator {
	tb.Helper()
	spec := `[
 {"id":"CS 101","offered":[%T%]},
 {"id":"CS 102","offered":[%T%]},
 {"id":"CS 103","offered":[%T%]},
 {"id":"CS 104","offered":[%T%]},
 {"id":"CS 201","prereq":"CS 101 or CS 102","offered":[%T%]},
 {"id":"CS 202","prereq":"CS 102 or CS 103","offered":[%T%]},
 {"id":"CS 203","prereq":"CS 103 or CS 104","offered":[%T%]},
 {"id":"CS 204","prereq":"CS 104 or CS 101","offered":[%T%]},
 {"id":"CS 205","prereq":"CS 101 or CS 103","offered":[%T%]},
 {"id":"CS 206","prereq":"CS 102 or CS 104","offered":[%T%]},
 {"id":"CS 301","prereq":"CS 201 or CS 202","offered":[%T%]},
 {"id":"CS 302","prereq":"CS 203 or CS 204","offered":[%T%]},
 {"id":"CS 303","prereq":"CS 205 or CS 206","offered":[%T%]},
 {"id":"CS 400","prereq":"CS 301 and CS 302 and CS 303","offered":[%T%]}
]`
	terms := `"Fall 2011","Spring 2012","Fall 2012","Spring 2013","Fall 2013","Spring 2014","Fall 2014","Spring 2015","Fall 2015","Spring 2016","Fall 2016","Spring 2017","Fall 2017"`
	js := strings.ReplaceAll(spec, "%T%", terms)
	nav, err := coursenav.NewFromJSON(strings.NewReader(js))
	if err != nil {
		tb.Fatal(err)
	}
	return nav
}

// TestWriteDiverseTranscripts writes the 10k-student transcript file
// behind EXPERIMENTS.md's CLI-level before/after comparison:
// goal-reaching walks truncated at a random mid-degree semester
// (at least one term recorded, at least one term remaining), spanning
// freshmen through near-graduates with diverse completed sets.
// Skipped unless WRITE_TRANSCRIPTS names the output path.
func TestWriteDiverseTranscripts(t *testing.T) {
	if os.Getenv("WRITE_TRANSCRIPTS") == "" {
		t.Skip("set WRITE_TRANSCRIPTS=path to generate")
	}
	nav := buildDiverseNav(t)
	cat := nav.Catalog()
	goal, err := nav.GoalExpr("CS 400")
	if err != nil {
		t.Fatal(err)
	}
	startT, _ := term.Parse(cat.Calendar(), "Fall 2013")
	endT, _ := term.Parse(cat.Calendar(), "Fall 2015")
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	trs, err := transcript.GenerateRand(cat, goal.Inner(), startT, endT, 3, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]transcript.Transcript, 0, n)
	for _, tr := range trs {
		if len(tr.Entries) < 2 {
			continue
		}
		k := 1 + rng.Intn(len(tr.Entries)-1)
		out = append(out, transcript.Transcript{Student: tr.Student, Entries: tr.Entries[:k]})
	}
	f, err := os.Create(os.Getenv("WRITE_TRANSCRIPTS"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := transcript.Write(f, out); err != nil {
		t.Fatal(err)
	}
	if p := os.Getenv("WRITE_CATALOG"); p != "" {
		cf, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer cf.Close()
		if err := cat.WriteJSON(cf); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d transcripts", len(out))
}

// diverseMembers synthesizes (and caches, across the benchmarks of one
// test process — synthesis is ~60 s per 1000 members) a mid-degree
// cohort over the choice-rich catalog. COHORT_MEMBERS overrides the
// default 1000 for scale runs.
var diverseCache struct {
	sync.Mutex
	n       int
	members []cohort.Member
}

func diverseMembers(tb testing.TB, nav *coursenav.Navigator) []cohort.Member {
	n := 1000
	if s := os.Getenv("COHORT_MEMBERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			tb.Fatal(err)
		}
		n = v
	}
	diverseCache.Lock()
	defer diverseCache.Unlock()
	if diverseCache.n == n {
		return diverseCache.members
	}
	cat := nav.Catalog()
	goal, err := nav.GoalExpr("CS 400")
	if err != nil {
		tb.Fatal(err)
	}
	startT, _ := term.Parse(cat.Calendar(), "Fall 2013")
	endT, _ := term.Parse(cat.Calendar(), "Fall 2015")
	members, err := cohort.Synthesize(cat, goal.Inner(), startT, endT, 3, n, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	diverseCache.n, diverseCache.members = n, members
	return members
}

func runDiverse(b *testing.B, workers int) {
	nav := buildDiverseNav(b)
	sc := cohort.Scenario{Cancel: []cohort.Change{{Course: "CS 400", Terms: []string{"Spring 2015", "Fall 2015"}}}}
	scenCat, err := sc.Apply(nav.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	scen := coursenav.NewFromCatalog(scenCat)
	makeGoal := func(nv *coursenav.Navigator) (coursenav.Goal, error) {
		return nv.GoalExpr("CS 400")
	}
	members := diverseMembers(b, nav)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := &cohort.SharedPlanner{Base: nav, Scenario: scen, MakeGoal: makeGoal, Query: coursenav.Query{MaxPerTerm: 3}}
		r := &cohort.Runner{Planner: pl, Opts: cohort.Options{End: "Fall 2015", Horizon: 4, Baseline: true, Workers: workers}}
		if _, err := r.Run(context.Background(), members, func(cohort.MemberRecord) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiverseShared(b *testing.B)  { runDiverse(b, 1) }
func BenchmarkDiverseShared4(b *testing.B) { runDiverse(b, 4) }
