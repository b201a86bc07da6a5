package coursenav

import (
	"io"

	"repro/internal/catalog"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/viz"
)

// Graph is a materialised learning graph bound to its catalog for
// rendering. Obtain one from Navigator.Deadline or Navigator.GoalPaths.
type Graph struct {
	cat *catalog.Catalog
	g   *graph.Graph
}

// Stats summarises the learning graph.
type Stats struct {
	Nodes, Edges, Leaves, GoalNodes int
	Paths, GoalPaths                int64
	Depth                           int
}

// Stats computes summary statistics over the materialised graph.
func (g *Graph) Stats() Stats {
	s := g.g.Stats()
	return Stats{
		Nodes: s.Nodes, Edges: s.Edges, Leaves: s.Leaves, GoalNodes: s.GoalNodes,
		Paths: s.Paths, GoalPaths: s.GoalPaths, Depth: s.Depth,
	}
}

// WriteDOT renders the graph in Graphviz DOT form, styled like the
// paper's figures.
func (g *Graph) WriteDOT(w io.Writer) error { return viz.WriteDOT(w, g.cat, g.g) }

// WriteTree renders the graph as an indented ASCII tree. maxDepth ≤ 0
// means unlimited.
func (g *Graph) WriteTree(w io.Writer, maxDepth int) error {
	return viz.WriteTree(w, g.cat, g.g, maxDepth)
}

// WriteJSON renders the graph in the front-end JSON form. maxNodes ≤ 0
// means unlimited; otherwise the document is truncated.
func (g *Graph) WriteJSON(w io.Writer, maxNodes int) error {
	return viz.WriteJSON(w, g.cat, g.g, maxNodes)
}

// AppendJSON appends the bytes WriteJSON writes to dst, and reports
// whether maxNodes truncated the document. On error dst is returned
// unchanged.
func (g *Graph) AppendJSON(dst []byte, maxNodes int) (out []byte, truncated bool, err error) {
	out, err = viz.AppendJSON(dst, g.cat, g.g, maxNodes)
	return out, maxNodes > 0 && g.g.NumNodes() > maxNodes, err
}

// Selection is one semester of a learning path: the term and the elected
// courses (the edge label W).
type Selection struct {
	Term    string   `json:"term"`
	Courses []string `json:"courses"`
}

// Path is one learning path for presentation: consecutive semester
// selections from the start status, with the ranking cost/value when the
// path came from TopK.
type Path struct {
	Semesters []Selection `json:"semesters"`
	// Cost is the accumulated ranking cost (lower is better); Value is the
	// user-facing figure (semesters, hours, probability). Both are zero
	// for paths not produced by TopK.
	Cost  float64 `json:"cost,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// String renders the path like "Fall '13: {COSI 11A, COSI 29A} → …".
func (p Path) String() string {
	s := ""
	for i, sel := range p.Semesters {
		if i > 0 {
			s += " → "
		}
		s += sel.Term + ": {"
		for j, c := range sel.Courses {
			if j > 0 {
				s += ", "
			}
			s += c
		}
		s += "}"
	}
	return s
}

func pathFromGraph(cat *catalog.Catalog, g *graph.Graph, p graph.Path) Path {
	out := Path{Semesters: make([]Selection, 0, len(p.Edges))}
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		out.Semesters = append(out.Semesters, Selection{
			Term:    g.Node(p.Nodes[i]).Status.Term.Label(),
			Courses: cat.IDs(e.Selection),
		})
	}
	return out
}

func newPath(cat *catalog.Catalog, g *graph.Graph, rp explore.RankedPath) Path {
	p := pathFromGraph(cat, g, rp.Path)
	p.Cost = rp.Cost
	p.Value = rp.Value
	return p
}

// Paths enumerates the graph's learning paths for presentation: all
// maximal paths, or only goal-terminated ones. limit ≤ 0 means no limit;
// use a limit on large graphs — enumeration is exponential.
func (g *Graph) Paths(goalOnly bool, limit int) []Path {
	var out []Path
	g.g.ForEachPath(goalOnly, func(p graph.Path) bool {
		out = append(out, pathFromGraph(g.cat, g.g, p))
		return limit <= 0 || len(out) < limit
	})
	return out
}
