package explore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declAllowlist names the package's top-level declarations that no other
// non-test code in the module names, each with the reason it stays.
var declAllowlist = map[string]string{
	"GoalCountMulti":  "background-context form of GoalCountMultiCtx, kept beside every other entry point's pair",
	"NewTogetherOnly": "constructor of the exported TogetherOnly constraint for library callers; the façade exposes no co-requisite option",
}

// TestEveryDeclarationIsUsed keeps deleted engines deleted: every
// non-test top-level declaration of this package — function, method,
// type, variable or constant — must be named by some other non-test code
// in the module, or be on declAllowlist with a reason. A helper whose
// last caller went away fails here instead of lingering. References are
// matched by name: an identifier in this package, a selector anywhere in
// the module, which over-approximates use but never misses it.
func TestEveryDeclarationIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name     string // as reported: Name or Recv.Name
		ident    string // the identifier a reference uses
		pos, end token.Pos
	}
	var decls []decl
	var pkgFiles []*ast.File
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgFiles = append(pkgFiles, f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				n := decl{name: d.Name.Name, ident: d.Name.Name, pos: d.Pos(), end: d.End()}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					n.name = recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, n)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls = append(decls, decl{name: s.Name.Name, ident: s.Name.Name, pos: s.Pos(), end: s.End()})
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								decls = append(decls, decl{name: id.Name, ident: id.Name, pos: s.Pos(), end: s.End()})
							}
						}
					}
				}
			}
		}
	}

	// Identifiers named inside this package, with their positions, so a
	// declaration's own body (recursion, a constant's own spec) does not
	// count as a use.
	used := map[string][]token.Pos{}
	for _, f := range pkgFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = append(used[id.Name], id.Pos())
			}
			return true
		})
	}
	// Selectors named by the rest of the module's non-test code.
	elsewhere := moduleSelectors(t)

	var unused []string
	for _, d := range decls {
		named := elsewhere[d.ident]
		for _, p := range used[d.ident] {
			if p < d.pos || p >= d.end {
				named = true
				break
			}
		}
		if _, ok := declAllowlist[d.name]; ok {
			if named {
				t.Errorf("%s is on declAllowlist but has a user now; drop the entry", d.name)
			}
			continue
		}
		if !named {
			unused = append(unused, d.name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no non-test code in the module names it; delete it or allowlist it with a reason", name)
	}
}

// recvName is a method receiver's base type name.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// moduleSelectors returns the selector names (x.Name) in every non-test
// Go file of the module outside this package. Nested modules (a
// directory with its own go.mod) and testdata are not part of it.
func moduleSelectors(t *testing.T) map[string]bool {
	t.Helper()
	here, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := here
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the package")
		}
		root = parent
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == here || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				out[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
