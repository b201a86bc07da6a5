package server

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// roundedCap is the capacity the runtime gives a fresh n-byte slice: n
// rounded up to its allocation size class.
func roundedCap(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

func checkExact(t *testing.T, name string, body []byte) {
	t.Helper()
	if len(body) == 0 {
		t.Fatalf("%s: empty body", name)
	}
	if c, limit := cap(body), roundedCap(len(body)); c > limit {
		t.Errorf("%s: body holds %d bytes in a %d-byte capacity, want ≤ %d", name, len(body), c, limit)
	}
}

// TestCacheEntryBodiesExactLength: the cache charges an entry
// len(Body)+256 bytes, so no entry constructor may keep the spare
// capacity of the buffer its body was rendered in.
func TestCacheEntryBodiesExactLength(t *testing.T) {
	var grown bytes.Buffer
	grown.Grow(1 << 16)
	grown.WriteString(strings.Repeat("x", 40000))
	checkExact(t, "newEntry(bytes.Buffer)", newEntry(grown.Bytes(), 1, "w").Body)
	appended := append(make([]byte, 1000, 1000), '\n')
	checkExact(t, "newEntry(append)", newEntry(appended, 1, "w").Body)

	nav, _ := coursenav.Brandeis()
	s := New(nav)
	qs := QuerySpec{Completed: []string{"COSI 11A", "COSI 12B"}, Start: "Fall 2013", End: "Fall 2014", MaxPerTerm: 2}
	q := s.query(qs, nil)
	g, sum, err := nav.Deadline(q)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "graphEntry", s.graphEntry(qs, sum, g, sum.Paths).Body)
	goal, err := nav.GoalCourses("COSI 21A")
	if err != nil {
		t.Fatal(err)
	}
	q.End = "Fall 2015"
	paths, rsum, err := nav.TopK(q, goal, "time", 3)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, "rankedEntry", s.rankedEntry(qs, rsum, paths).Body)
}

// TestCacheEntriesUseNewEntry: every result-cache entry the server builds
// goes through newEntry, so TestCacheEntryBodiesExactLength covers the
// cohort units' entries too.
func TestCacheEntriesUseNewEntry(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "newEntry" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Entry" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "resultcache" {
						t.Errorf("%s: %s builds a resultcache.Entry directly; use newEntry", fset.Position(lit.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// TestPipelineHasOneImplementation: runUnit is the serving pipeline's
// only implementation, so no other non-test function joins (GetOrJoin or
// Join) or finishes a result-cache flight. Calls on an imported package
// (strings.Join) are not flights.
func TestPipelineHasOneImplementation(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inRunUnit := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			pkgs[path[strings.LastIndex(path, "/")+1:]] = true
			if imp.Name != nil {
				pkgs[imp.Name.Name] = true
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "GetOrJoin" && sel.Sel.Name != "Join" && sel.Sel.Name != "Finish") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && pkgs[x.Name] {
					return true
				}
				if fn.Name.Name == "runUnit" {
					inRunUnit[sel.Sel.Name]++
					return true
				}
				t.Errorf("%s: %s calls %s on the result cache; run the unit through runUnit", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
				return true
			})
		}
	}
	if inRunUnit["GetOrJoin"] != 1 || inRunUnit["Join"] != 0 || inRunUnit["Finish"] == 0 {
		t.Errorf("runUnit calls GetOrJoin %d, Join %d and Finish %d times; the guard no longer recognises the pipeline",
			inRunUnit["GetOrJoin"], inRunUnit["Join"], inRunUnit["Finish"])
	}
}
