package snapshot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoSecondAtomicWrite keeps Atomic the one crash-safe write: no non-test
// Go file outside this package and bench/ may call os.CreateTemp, os.Rename
// or os.WriteFile, the pieces of a hand-rolled temp file + fsync + rename
// (or of a write with no crash safety at all). Every file a binary writes
// goes through Atomic.
func TestNoSecondAtomicWrite(t *testing.T) {
	banned := map[string]bool{"CreateTemp": true, "Rename": true, "WriteFile": true}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "snapshot") || d.Name() == "testdata" ||
				(rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		osName := ""
		for _, is := range f.Imports {
			if p, _ := strconv.Unquote(is.Path.Value); p == "os" {
				osName = "os"
				if is.Name != nil {
					osName = is.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName {
					t.Errorf("%s: os.%s outside internal/snapshot; write files through snapshot.Atomic",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files from %s — the guard is not seeing the module", files, root)
	}
}
