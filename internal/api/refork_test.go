package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSecondWireSchemaOrShell is the re-fork guard: outside this package
// (and bench/, a module of its own with its own response checks) no non-test
// Go file of the module may declare a struct field carrying one of the wire
// schema's JSON keys, or a function named like the shell pieces that used to
// exist twice. A second wire schema or request shell cannot quietly grow back.
func TestNoSecondWireSchemaOrShell(t *testing.T) {
	wireTags := []string{`json:"company_id"`, `json:"matches"`, `json:"prospects"`, `json:"recommendations"`}
	shellFuncs := map[string]bool{"statusFor": true, "requestTimeout": true, "newEndpointMetrics": true}

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "api") || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if shellFuncs[n.Name.Name] {
					t.Errorf("%s: func %s re-implements a piece of the request shell; use internal/api",
						fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.Field:
				if n.Tag == nil {
					break
				}
				for _, tag := range wireTags {
					if strings.Contains(n.Tag.Value, tag) {
						t.Errorf("%s: struct field tagged %s declares a second wire schema; use the internal/api types",
							fset.Position(n.Pos()), tag)
					}
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
