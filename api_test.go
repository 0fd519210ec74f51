package flatnet_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the package's exported names")

// apiFile lists every exported top-level name of package flatnet as one
// sorted "kind name" line.
const apiFile = "testdata/api.txt"

// TestAPIPinned holds the facade to testdata/api.txt, so that adding or
// removing a public name is a reviewed diff of that file. After a
// deliberate change, regenerate it with
//
//	go test . -run TestAPIPinned -update
func TestAPIPinned(t *testing.T) {
	got := exportedNames(t)
	if *updateAPI {
		if err := os.WriteFile(apiFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(apiFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	gotSet, wantSet := map[string]bool{}, map[string]bool{}
	for _, l := range got {
		gotSet[l] = true
	}
	for _, l := range want {
		wantSet[l] = true
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("removed from the facade: %s", l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("added to the facade: %s", l)
		}
	}
	if t.Failed() {
		t.Logf("if the change is meant, rerun with -update and commit %s", apiFile)
	}
}

// exportedNames parses the package's non-test files and returns each
// exported top-level const, var, type and func as a "kind name" line,
// sorted.
func exportedNames(t *testing.T) []string {
	t.Helper()
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			names = append(names, kind+" "+id.Name)
		}
	}
	for _, e := range files {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add("type", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(d.Tok.String(), id)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}
