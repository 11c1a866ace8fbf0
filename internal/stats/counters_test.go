package stats

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryCounterIsRead pins the rule that every statistic has a
// reader: each struct field of type stats.Counter declared in the
// module's non-test code (the benchmark module included) must appear
// somewhere as a selector that is not just the receiver of .Inc() or
// .Add(...). Tests count as readers. Fields are matched by name, so a
// write-only counter sharing its name with a read one goes unnoticed;
// a read counter is never flagged.
func TestEveryCounterIsRead(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	declared := map[string]string{} // field name -> first declaration
	read := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			collectCounterFields(fset, root, f, declared)
		}
		collectReads(f, read)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if declared["FlitsTotal"] == "" {
		t.Fatalf("found no NetStats counters under %s: the walk missed the module", root)
	}
	var unread []string
	for name, at := range declared {
		if !read[name] {
			unread = append(unread, name+" ("+at+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Fatalf("stats.Counter fields that are only ever incremented:\n  %s\nread each one into a result, gauge, report, audit or test, or delete it",
			strings.Join(unread, "\n  "))
	}
}

// moduleRoot walks up from the package directory to the directory of
// the netcrafter go.mod.
func moduleRoot(t *testing.T) string {
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module netcrafter\n")) {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no netcrafter go.mod above the package directory")
		}
		dir = parent
	}
}

// collectCounterFields records every struct field of type
// stats.Counter (plain Counter inside package stats) in f.
func collectCounterFields(fset *token.FileSet, root string, f *ast.File, declared map[string]string) {
	isCounter := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return f.Name.Name == "stats" && e.Name == "Counter"
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && x.Name == "stats" && e.Sel.Name == "Counter"
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if !isCounter(field.Type) {
				continue
			}
			for _, name := range field.Names {
				if declared[name.Name] == "" {
					pos := fset.Position(name.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					declared[name.Name] = filepath.ToSlash(rel) + ":" + strconv.Itoa(pos.Line)
				}
			}
		}
		return true
	})
}

// collectReads marks every selector name in f that appears other than
// as the receiver of an .Inc() or .Add(...) call.
func collectReads(f *ast.File, read map[string]bool) {
	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.SelectorExpr); ok && (fn.Sel.Name == "Inc" || fn.Sel.Name == "Add") {
				if recv, ok := fn.X.(*ast.SelectorExpr); ok {
					writes[recv] = true
				}
			}
		case *ast.SelectorExpr:
			if !writes[n] {
				read[n.Sel.Name] = true
			}
		}
		return true
	})
}
