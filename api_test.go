package flatnet_test

import (
	"flag"
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

var update = flag.Bool("update", false, "rewrite the pinned name lists under testdata/ (api.txt, testonly.txt)")

// apiFile lists every exported top-level name of package flatnet as one
// sorted "kind name" line.
const apiFile = "testdata/api.txt"

// TestAPIPinned holds the facade to testdata/api.txt, so that adding or
// removing a public name is a reviewed diff of that file. After a
// deliberate change, regenerate it with
//
//	go test . -run TestAPIPinned -update
func TestAPIPinned(t *testing.T) {
	comparePinned(t, apiFile, exportedNames(t), "the facade")
}

// comparePinned holds the sorted lines got to the file path, naming each
// line added or removed; with -update it rewrites the file instead.
func comparePinned(t *testing.T, path string, got []string, what string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
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
			t.Errorf("removed from %s: %s", what, l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("added to %s: %s", what, l)
		}
	}
	if t.Failed() {
		t.Logf("if the change is meant, rerun with -update and commit %s", path)
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

// testOnlyFile lists every package-level func, method and type of the
// module (bench/ included) that no non-test file names, as sorted
// "dir kind name" lines.
const testOnlyFile = "testdata/testonly.txt"

// stdMethods are the module's method names that standard-library
// interfaces call (fmt.Stringer, error, io.Reader, io.Writer, io.Closer,
// sort.Interface's Len): such a method is reached without its name being
// written.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Read": true, "Write": true, "Close": true, "Len": true,
}

// TestTestOnlyPinned holds the code that only tests reach to
// testdata/testonly.txt, so that adding a func, method or type no
// program calls, or leaving one behind when its last caller goes, is a
// reviewed diff of that file. Reach is judged by name: a declaration is
// listed when no non-test Go file of the module or of bench/ mentions
// its name anywhere but in the declaration itself (a method receiver is
// not a mention of its type). After a deliberate change, regenerate it
// with
//
//	go test . -run TestTestOnlyPinned -update
func TestTestOnlyPinned(t *testing.T) {
	comparePinned(t, testOnlyFile, testOnlyNames(t), "the test-only list")
}

// testOnlyNames parses every non-test Go file under the module root and
// returns the unmentioned declarations described at testOnlyFile.
func testOnlyNames(t *testing.T) []string {
	t.Helper()
	type decl struct{ dir, kind, name, key string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		own := map[*ast.Ident]bool{} // declaring identifiers, not mentions
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own[d.Name] = true
				switch {
				case d.Recv == nil:
					if d.Name.Name != "main" && d.Name.Name != "init" {
						decls = append(decls, decl{dir, "func", d.Name.Name, d.Name.Name})
					}
				case !stdMethods[d.Name.Name]:
					recv := receiverType(d.Recv.List[0].Type)
					decls = append(decls, decl{dir, "method", recv + "." + d.Name.Name, d.Name.Name})
				}
				if d.Recv != nil {
					// The receiver names the type only to attach the method.
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							own[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if s, ok := s.(*ast.TypeSpec); ok {
						own[s.Name] = true
						decls = append(decls, decl{dir, "type", s.Name.Name, s.Name.Name})
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range decls {
		if !used[d.key] {
			names = append(names, d.dir+" "+d.kind+" "+d.name)
		}
	}
	sort.Strings(names)
	return names
}

// receiverType returns the type name of a method receiver expression:
// T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
