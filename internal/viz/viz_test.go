package viz

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

func fig3(t *testing.T) (*catalog.Catalog, *graph.Graph) {
	t.Helper()
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	cat, err := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "11A", Offered: []term.Term{f11, f11.Add(2)}}).
		Add(catalog.Course{ID: "29A", Offered: []term.Term{f11, f11.Add(2)}}).
		Add(catalog.Course{ID: "21A", Prereq: expr.MustParse("11A"), Offered: []term.Term{f11.Next()}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	goal, err := degree.NewCourseSet(cat, "11A", "29A", "21A")
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, f11, bitset.New(3))
	res, err := explore.Goal(cat, start, f11.Add(2), goal,
		explore.PaperPruners(cat, goal, 3), explore.Options{MaxPerTerm: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cat, res.Graph
}

func TestWriteDOT(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, cat, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph learning_paths",
		"rankdir=LR",
		"n0 [",
		"->",
		"X={11A,29A}",
		"peripheries=2", // goal node styling
		"style=dashed",  // pruned node styling
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Balanced braces.
	if strings.Count(out, "{") < 2 || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output malformed")
	}
}

func TestWriteTree(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteTree(&buf, cat, g, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[GOAL]") {
		t.Error("tree output missing goal marker")
	}
	if !strings.Contains(out, "[pruned]") {
		t.Error("tree output missing pruned marker")
	}
	if !strings.Contains(out, "Fall '11") {
		t.Error("tree output missing term label")
	}
	// Depth limiting produces the ellipsis marker.
	buf.Reset()
	if err := WriteTree(&buf, cat, g, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "…") {
		t.Error("depth-limited tree missing ellipsis")
	}
}

func TestWriteTreeSharedNodes(t *testing.T) {
	// A merged DAG prints the shared node once, then by reference.
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	cat, _ := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "A1", Offered: []term.Term{f11, f11.Next()}}).
		Add(catalog.Course{ID: "B1", Offered: []term.Term{f11, f11.Next()}}).
		Build()
	start := status.New(cat, f11, bitset.New(2))
	res, err := explore.Deadline(cat, start, f11.Add(2), explore.Options{MergeStatuses: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, cat, res.Graph, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(n") {
		t.Error("shared node reference missing from merged-DAG tree")
	}
}

// jsonGraph is the decoded form of the front-end JSON document.
type jsonGraph struct {
	Root  int `json:"root"`
	Nodes []struct {
		ID        int      `json:"id"`
		Term      string   `json:"term"`
		Completed []string `json:"completed"`
		Options   []string `json:"options"`
		Goal      bool     `json:"goal"`
		Pruned    bool     `json:"pruned"`
	} `json:"nodes"`
	Edges []struct {
		From      int      `json:"from"`
		To        int      `json:"to"`
		Selection []string `json:"selection"`
		Cost      float64  `json:"cost"`
	} `json:"edges"`
}

// decodeJSON renders the graph's document and decodes it.
func decodeJSON(t *testing.T, cat *catalog.Catalog, g *graph.Graph, maxNodes int) jsonGraph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, cat, g, maxNodes); err != nil {
		t.Fatal(err)
	}
	var doc jsonGraph
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return doc
}

func TestToJSON(t *testing.T) {
	cat, g := fig3(t)
	doc := decodeJSON(t, cat, g, 0)
	if truncated := g.NumNodes() - len(doc.Nodes); truncated != 0 {
		t.Errorf("unexpected truncation %d", truncated)
	}
	if len(doc.Nodes) != g.NumNodes() || len(doc.Edges) != g.NumEdges() {
		t.Errorf("JSON sizes %d/%d vs graph %d/%d",
			len(doc.Nodes), len(doc.Edges), g.NumNodes(), g.NumEdges())
	}
	if doc.Nodes[0].Term != "Fall 2011" {
		t.Errorf("root term = %q", doc.Nodes[0].Term)
	}
	foundGoal := false
	for _, n := range doc.Nodes {
		if n.Goal {
			foundGoal = true
		}
	}
	if !foundGoal {
		t.Error("goal flag lost in JSON")
	}
	// Truncation drops nodes and their edges consistently.
	doc2 := decodeJSON(t, cat, g, 2)
	if truncated2 := g.NumNodes() - len(doc2.Nodes); truncated2 != g.NumNodes()-2 || len(doc2.Nodes) != 2 {
		t.Errorf("truncation: %d nodes, %d dropped", len(doc2.Nodes), truncated2)
	}
	for _, e := range doc2.Edges {
		if e.From >= 2 || e.To >= 2 {
			t.Error("edge references dropped node")
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	cat, g := fig3(t)
	doc := decodeJSON(t, cat, g, 0)
	if doc.Root != 0 || len(doc.Nodes) == 0 {
		t.Errorf("decoded doc = %+v", doc)
	}
}

func TestPathString(t *testing.T) {
	cat, g := fig3(t)
	paths := g.Paths(true)
	if len(paths) == 0 {
		t.Fatal("no goal paths")
	}
	s := PathString(cat, g, paths[0])
	if !strings.Contains(s, "Fall '11: {11A, 29A}") || !strings.Contains(s, "→") {
		t.Errorf("PathString = %q", s)
	}
}

func TestWriteMermaid(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteMermaid(&buf, cat, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"flowchart LR",
		":::goal",
		":::pruned",
		"classDef goal",
		"-- \"{11A,29A}\" -->",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mermaid missing %q:\n%s", want, out)
		}
	}
}
