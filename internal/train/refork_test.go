package train

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestTrainersKeepNoLoopScaffold is the re-fork guard: the four trainer
// packages supply math and state capture to Loop and must not grow their
// own cancellation check or trace spans back. No non-test file of theirs may
// import internal/trace or call ctx.Err().
func TestTrainersKeepNoLoopScaffold(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"lda", "rnn", "sgns", "bpmf"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if m, _ := filepath.Match("*_test.go", filepath.Base(path)); m {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, imp := range f.Imports {
				if imp.Path.Value == `"repro/internal/trace"` {
					t.Errorf("%s: imports internal/trace; training spans belong to train.Loop", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Err" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "ctx" {
					t.Errorf("%s: calls ctx.Err(); cancellation belongs to train.Loop", fset.Position(call.Pos()))
				}
				return true
			})
		}
		if parsed == 0 {
			t.Fatalf("no non-test Go files under internal/%s — the guard is not seeing the package", pkg)
		}
	}
}
