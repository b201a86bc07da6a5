package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/server"
)

// run executes the CLI in-process; stdout noise is acceptable in tests —
// assertions focus on error behaviour and file outputs.
func runCLI(t *testing.T, args ...string) error {
	t.Helper()
	return run(args)
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},             // missing subcommand
		{"frobnicate"}, // unknown subcommand
		{"-catalog", "/no/such/file", "lint"},
		{"-registrar", "/no/such/file", "lint"},
		{"-window", "justone", "-registrar", "x", "lint"},
		{"deadline"},                        // missing start/end
		{"deadline", "-start", "Fall 2013"}, // missing end
		{"goal", "-start", "Fall 2014", "-end", "Fall 2015"},                               // no goal
		{"goal", "-start", "Fall 2014", "-end", "Fall 2015", "-goal-expr", "((("},          // bad expr
		{"goal", "-start", "Fall 2014", "-end", "Fall 2015", "-major", "-goal-expr", "x1"}, // two goals
		{"rank", "-start", "Fall 2014", "-end", "Fall 2015", "-major", "-ranking", "magic"},
		{"rank", "-start", "Fall 2014", "-end", "Fall 2015", "-major", "-k", "0"},
		{"options", "-start", "nope"},
		{"plan"}, // missing -file
		{"plan", "-file", "/no/such/file"},
		{"audit", "-completed", "NOPE"},
		{"audit", "-now", "nope"},
		{"whatif", "-start", "Fall 2013", "-end", "Fall 2015"},          // no goal
		{"cohort", "-synthesize", "5", "-start", "Fall 2013", "-major"}, // no -end
		{"cohort", "-end", "Fall 2015", "-transcripts", "/no/such/file",
			"-synthesize", "5", "-start", "Fall 2013", "-major"}, // two member sources
	}
	for _, args := range cases {
		if err := runCLI(t, args...); err == nil {
			t.Errorf("run(%q) succeeded, want error", strings.Join(args, " "))
		}
	}
}

func TestRunHappyPaths(t *testing.T) {
	// Redirect stdout so test output stays readable.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })

	cases := [][]string{
		{"catalog"},
		{"catalog", "-json"},
		{"lint"},
		{"options", "-start", "Fall 2013"},
		{"options", "-start", "Spring 2013"}, // only COSI 2A and 33B
		{"deadline", "-start", "Spring 2015", "-end", "Fall 2015", "-m", "2"},
		{"deadline", "-start", "Spring 2015", "-end", "Fall 2015", "-m", "2", "-count"},
		{"deadline", "-start", "Spring 2015", "-end", "Fall 2015", "-m", "2", "-tree"},
		{"deadline", "-start", "Spring 2015", "-end", "Fall 2015", "-m", "2", "-dot"},
		{"deadline", "-start", "Spring 2015", "-end", "Fall 2015", "-m", "2", "-json"},
		{"goal", "-start", "Fall 2013", "-end", "Fall 2015", "-m", "3", "-major", "-limit", "2"},
		{"goal", "-start", "Fall 2013", "-end", "Fall 2015", "-m", "3", "-major", "-count", "-no-pruning"},
		{"goal", "-start", "Fall 2014", "-end", "Fall 2015", "-m", "2",
			"-goal-courses", "COSI 11A,COSI 29A"},
		{"rank", "-start", "Fall 2013", "-end", "Fall 2015", "-m", "3", "-major", "-k", "2"},
		{"rank", "-start", "Fall 2013", "-end", "Fall 2015", "-m", "3", "-major",
			"-ranking", "workload", "-k", "1"},
		{"rank", "-start", "Fall 2013", "-end", "Fall 2015", "-m", "3", "-major",
			"-ranking", "reliability", "-k", "1"},
		{"audit", "-completed", "COSI 11A,COSI 29A", "-now", "Fall 2014", "-deadline", "Fall 2015"},
		{"whatif", "-completed", "COSI 11A,COSI 29A", "-start", "Spring 2014",
			"-end", "Fall 2015", "-m", "2", "-major", "-limit", "3"},
	}
	for _, args := range cases {
		if err := runCLI(t, args...); err != nil {
			t.Errorf("run(%q): %v", strings.Join(args, " "), err)
		}
	}
}

func TestRunPlanSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.plan")
	if err := os.WriteFile(good, []byte(
		"student: good\nFall 2013: COSI 11A, COSI 29A\nSpring 2014: COSI 21A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.plan")
	if err := os.WriteFile(bad, []byte(
		"student: bad\nFall 2013: COSI 21A\n"), 0o644); err != nil { // prereq unmet
		t.Fatal(err)
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })

	if err := runCLI(t, "plan", "-file", good); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := runCLI(t, "plan", "-file", good, "-goal-courses", "COSI 11A,COSI 21A"); err != nil {
		t.Errorf("goal-meeting plan rejected: %v", err)
	}
	if err := runCLI(t, "plan", "-file", good, "-goal-courses", "COSI 31A"); err == nil {
		t.Error("goal-missing plan accepted")
	}
	if err := runCLI(t, "plan", "-file", bad); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestRunWithCatalogAndRegistrarFiles(t *testing.T) {
	dir := t.TempDir()
	// Round-trip the embedded catalog through -catalog.
	jsonPath := filepath.Join(dir, "catalog.json")
	{
		old := os.Stdout
		f, err := os.Create(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = f
		err = runCLI(t, "catalog", "-json")
		os.Stdout = old
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })
	if err := runCLI(t, "-catalog", jsonPath, "lint"); err != nil {
		t.Errorf("catalog file lint: %v", err)
	}
	// -major requires the embedded catalog.
	if err := runCLI(t, "-catalog", jsonPath, "goal",
		"-start", "Fall 2013", "-end", "Fall 2015", "-major"); err == nil {
		t.Error("-major with external catalog accepted")
	}
	// Registrar path.
	dumpPath := filepath.Join(dir, "dump.txt")
	if err := os.WriteFile(dumpPath, []byte(
		"course: COSI 11A\ntitle: Intro\ndescription: Intro. Usually offered every semester.\nworkload: 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	schedPath := filepath.Join(dir, "sched.txt")
	if err := os.WriteFile(schedPath, []byte("COSI 11A | Fall 2013\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, "-registrar", dumpPath, "-schedule", schedPath,
		"-window", "Fall 2013,Fall 2015", "catalog"); err != nil {
		t.Errorf("registrar import: %v", err)
	}
}

func TestRunImpactSubcommand(t *testing.T) {
	dir := t.TempDir()
	oldCat := `[
	 {"id":"CS 1A","offered":["Fall 2013","Spring 2014"]},
	 {"id":"CS 2A","prereq":"CS 1A","offered":["Spring 2014"]}]`
	newCat := `[
	 {"id":"CS 1A","offered":["Fall 2013","Spring 2014"]},
	 {"id":"CS 2A","prereq":"CS 1A","offered":["Fall 2014"]}]`
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	for path, data := range map[string]string{oldPath: oldCat, newPath: newCat} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plans := filepath.Join(dir, "plans.txt")
	if err := os.WriteFile(plans, []byte(
		"student: S1\nFall 2013: CS 1A\nSpring 2014: CS 2A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })

	if err := runCLI(t, "impact", "-old", oldPath, "-new", newPath,
		"-goal-courses", "CS 1A,CS 2A", "-start", "Fall 2013", "-end", "Fall 2014",
		"-m", "2", "-plans", plans); err != nil {
		t.Errorf("impact: %v", err)
	}
	// Missing required flags error.
	if err := runCLI(t, "impact", "-old", oldPath); err == nil {
		t.Error("missing flags accepted")
	}
	if err := runCLI(t, "impact", "-old", "/no/file", "-new", newPath,
		"-goal-courses", "CS 1A", "-start", "Fall 2013", "-end", "Fall 2014"); err == nil {
		t.Error("missing old file accepted")
	}
}

// TestRunCohortMatchesServer: the CLI's cohort command and POST
// /api/v1/cohort answer the same job with the same member records,
// record for record. The scenario delays its members, so records carry
// probe results, baselines and replans: the CLI's direct replan is held
// to the server's pipeline replan.
func TestRunCohortMatchesServer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cohort.ndjson")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = runCLI(t, "cohort", "-synthesize", "24", "-member-seed", "3",
		"-start", "Fall 2013", "-end", "Spring 2015", "-m", "3",
		"-goal-courses", "COSI 21A,COSI 29A", "-cancel", "COSI 21A@Spring 2014|Fall 2014",
		"-baseline", "-detail", "-horizon", "2", "-ndjson")
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatalf("cohort: %v", err)
	}
	cli, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	nav, _ := coursenav.Brandeis()
	ts := httptest.NewServer(server.New(nav))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/api/v1/cohort", "application/json", strings.NewReader(`{
		"scenario":{"cancel":[{"course":"COSI 21A","terms":["Spring 2014","Fall 2014"]}]},
		"synthesize":{"n":24,"seed":3},
		"query":{"start":"Fall 2013","end":"Spring 2015","maxPerTerm":3},
		"goal":{"courses":["COSI 21A","COSI 29A"]},
		"baseline":true,"detail":true,"horizon":2}`))
	if err != nil {
		t.Fatal(err)
	}
	api, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/v1/cohort: %d %s (%v)", resp.StatusCode, api, err)
	}

	members := func(body []byte) [][]byte {
		var out [][]byte
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if bytes.HasPrefix(line, []byte(`{"member":`)) {
				out = append(out, line)
			}
		}
		return out
	}
	cm, am := members(cli), members(api)
	if len(cm) != 24 || len(am) != 24 {
		t.Fatalf("member records: CLI %d, API %d, want 24 each", len(cm), len(am))
	}
	delayed := 0
	for i := range cm {
		if !bytes.Equal(cm[i], am[i]) {
			t.Errorf("member %d differs:\ncli: %s api: %s", i, cm[i], am[i])
		}
		if bytes.Contains(cm[i], []byte(`"replan":{"selections":`)) && !bytes.Contains(cm[i], []byte(`"delay":0`)) {
			delayed++
		}
	}
	if delayed == 0 {
		t.Error("no delayed member with a replan: the scenario does not exercise the probe")
	}
}
