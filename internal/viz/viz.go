// Package viz is the reproduction of CourseNavigator's Learning Path
// Visualizer (paper §3, Figure 2): it renders learning graphs for human
// consumption. Three renderers are provided — Graphviz DOT (the figures'
// box-and-arrow form), an indented ASCII tree for terminals, and a JSON
// document for the front-end service.
package viz

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/jsonenc"
	"repro/internal/term"
)

// nodeLabel renders a node like the paper's figures:
// "n3 | Spring '12 | X={11A,29A} | Y={21A}".
func nodeLabel(cat *catalog.Catalog, g *graph.Graph, id graph.NodeID) string {
	n := g.Node(id)
	return fmt.Sprintf("n%d\\ns=%s\\nX={%s}\\nY={%s}",
		id,
		n.Status.Term,
		strings.Join(cat.IDs(n.Status.Completed), ","),
		strings.Join(cat.IDs(n.Status.Options), ","))
}

// WriteDOT renders the graph in Graphviz DOT form. Goal nodes are drawn
// with a double border, pruned nodes greyed out; edges are labelled with
// their selection W (and cost when non-zero).
func WriteDOT(w io.Writer, cat *catalog.Catalog, g *graph.Graph) error {
	var b strings.Builder
	b.WriteString("digraph learning_paths {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		n := g.Node(id)
		attrs := []string{fmt.Sprintf("label=\"%s\"", nodeLabel(cat, g, id))}
		if n.Goal {
			attrs = append(attrs, "peripheries=2", "color=darkgreen")
		}
		if n.Pruned {
			attrs = append(attrs, "style=dashed", "color=gray", "fontcolor=gray")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, strings.Join(attrs, ", "))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		label := "{" + strings.Join(cat.IDs(e.Selection), ",") + "}"
		if e.Cost != 0 {
			label += fmt.Sprintf(" (%.3g)", e.Cost)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s\", fontsize=9];\n", e.From, e.To, label)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTree renders the graph as an indented ASCII tree rooted at the
// start status. Shared (merged) nodes are expanded once and referenced
// afterwards. maxDepth ≤ 0 means no limit.
func WriteTree(w io.Writer, cat *catalog.Catalog, g *graph.Graph, maxDepth int) error {
	seen := make(map[graph.NodeID]bool)
	var rec func(id graph.NodeID, prefix string, depth int) error
	rec = func(id graph.NodeID, prefix string, depth int) error {
		n := g.Node(id)
		marks := ""
		if n.Goal {
			marks += " [GOAL]"
		}
		if n.Pruned {
			marks += " [pruned]"
		}
		if seen[id] {
			_, err := fmt.Fprintf(w, "%s(n%d)%s\n", prefix, id, marks)
			return err
		}
		seen[id] = true
		if _, err := fmt.Fprintf(w, "%sn%d %s X={%s}%s\n",
			prefix, id, n.Status.Term, strings.Join(cat.IDs(n.Status.Completed), ","), marks); err != nil {
			return err
		}
		if maxDepth > 0 && depth >= maxDepth {
			if len(n.Out) > 0 {
				_, err := fmt.Fprintf(w, "%s  …\n", prefix)
				return err
			}
			return nil
		}
		for _, eid := range n.Out {
			e := g.Edge(eid)
			if _, err := fmt.Fprintf(w, "%s  +--{%s}-->\n", prefix, strings.Join(cat.IDs(e.Selection), ",")); err != nil {
				return err
			}
			if err := rec(e.To, prefix+"  |   ", depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(g.Root(), "", 0)
}

// AppendJSON appends the front-end JSON document of the graph to dst:
// root, nodes and edges, indented by two spaces and ended by a newline —
// the bytes encoding/json's Encoder with SetIndent("", "  ") writes for
// the document's struct form, produced without reflection. Course IDs
// come from the catalog's escaped-ID table; each term label is escaped
// once per render. A node's completed and options lists are arrays
// ("[]" when empty), goal and pruned appear only when set, an edge's
// cost only when non-zero, and "edges" is null when no edge survives.
//
// maxNodes ≤ 0 means no limit; otherwise nodes beyond the limit are
// dropped along with their edges (breadth is preserved in ID order,
// which is generation order). An edge cost encoding/json refuses (NaN,
// ±Inf) returns dst unchanged with encoding/json's error.
func AppendJSON(dst []byte, cat *catalog.Catalog, g *graph.Graph, maxNodes int) ([]byte, error) {
	start := len(dst)
	n := g.NumNodes()
	if maxNodes > 0 && n > maxNodes {
		n = maxNodes
	}
	var terms termLiterals
	dst = append(dst, "{\n  \"root\": "...)
	dst = strconv.AppendInt(dst, int64(g.Root()), 10)
	dst = append(dst, ",\n  \"nodes\": ["...)
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"id\": "...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ",\n      \"term\": "...)
		dst = terms.append(dst, nd.Status.Term)
		dst = append(dst, ",\n      \"completed\": "...)
		dst = appendIDs(dst, cat, nd.Status.Completed)
		dst = append(dst, ",\n      \"options\": "...)
		dst = appendIDs(dst, cat, nd.Status.Options)
		if nd.Goal {
			dst = append(dst, ",\n      \"goal\": true"...)
		}
		if nd.Pruned {
			dst = append(dst, ",\n      \"pruned\": true"...)
		}
		dst = append(dst, "\n    }"...)
	}
	if n > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = append(dst, "],\n  \"edges\": "...)
	edges := 0
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if int(e.From) >= n || int(e.To) >= n {
			continue
		}
		if edges == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		edges++
		dst = append(dst, "\n    {\n      \"from\": "...)
		dst = strconv.AppendInt(dst, int64(e.From), 10)
		dst = append(dst, ",\n      \"to\": "...)
		dst = strconv.AppendInt(dst, int64(e.To), 10)
		dst = append(dst, ",\n      \"selection\": "...)
		dst = appendIDs(dst, cat, e.Selection)
		if e.Cost != 0 {
			dst = append(dst, ",\n      \"cost\": "...)
			var err error
			if dst, err = jsonenc.Float(dst, e.Cost); err != nil {
				return dst[:start], err
			}
		}
		dst = append(dst, "\n    }"...)
	}
	if edges == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...), nil
}

// appendIDs appends a course set as the document's indented array of
// ID strings, at a node field's depth.
func appendIDs(dst []byte, cat *catalog.Catalog, s bitset.Set) []byte {
	dst = append(dst, '[')
	first := true
	for wi, w := range s.Words() {
		for w != 0 {
			if first {
				first = false
			} else {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n        "...)
			dst = cat.AppendIDJSON(dst, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	if !first {
		dst = append(dst, "\n      "...)
	}
	return append(dst, ']')
}

// termLiterals caches the escaped labels of the few terms one graph
// spans, so each is built once per render rather than once per node.
type termLiterals struct {
	n    int
	ords [16]int
	lits [16]string
}

func (c *termLiterals) append(dst []byte, t term.Term) []byte {
	ord := t.Ordinal()
	for i := 0; i < c.n; i++ {
		if c.ords[i] == ord {
			return append(dst, c.lits[i]...)
		}
	}
	lit := string(jsonenc.String(nil, t.Label()))
	if c.n < len(c.ords) {
		c.ords[c.n], c.lits[c.n] = ord, lit
		c.n++
	}
	return append(dst, lit...)
}

// WriteJSON writes the front-end JSON document of the graph (see
// AppendJSON). Nothing is written when the document cannot be rendered.
func WriteJSON(w io.Writer, cat *catalog.Catalog, g *graph.Graph, maxNodes int) error {
	doc, err := AppendJSON(nil, cat, g, maxNodes)
	if err != nil {
		return err
	}
	_, err = w.Write(doc)
	return err
}

// PathString renders one path as the semester-by-semester selections,
// e.g. "Fall '11: {11A, 29A} → Spring '12: {21A}".
func PathString(cat *catalog.Catalog, g *graph.Graph, p graph.Path) string {
	parts := make([]string, 0, len(p.Edges))
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		from := g.Node(p.Nodes[i])
		parts = append(parts, fmt.Sprintf("%s: {%s}",
			from.Status.Term, strings.Join(cat.IDs(e.Selection), ", ")))
	}
	return strings.Join(parts, " → ")
}

// WriteMermaid renders the graph as a Mermaid flowchart — the format
// GitHub and most wikis render inline, so learning graphs can be pasted
// straight into documentation and issue threads.
func WriteMermaid(w io.Writer, cat *catalog.Catalog, g *graph.Graph) error {
	var b strings.Builder
	b.WriteString("flowchart LR\n")
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		label := fmt.Sprintf("%s<br/>X={%s}", n.Status.Term,
			strings.Join(cat.IDs(n.Status.Completed), ","))
		switch {
		case n.Goal:
			fmt.Fprintf(&b, "  n%d([\"%s\"]):::goal\n", i, label)
		case n.Pruned:
			fmt.Fprintf(&b, "  n%d[\"%s\"]:::pruned\n", i, label)
		default:
			fmt.Fprintf(&b, "  n%d[\"%s\"]\n", i, label)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		fmt.Fprintf(&b, "  n%d -- \"{%s}\" --> n%d\n",
			e.From, strings.Join(cat.IDs(e.Selection), ","), e.To)
	}
	b.WriteString("  classDef goal stroke:#2e7d32,stroke-width:3px\n")
	b.WriteString("  classDef pruned stroke:#9e9e9e,stroke-dasharray:4\n")
	_, err := io.WriteString(w, b.String())
	return err
}
