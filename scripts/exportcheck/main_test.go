package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDeclarationNamesAreNoUse: a function whose name is also a method's,
// a struct field's or a parameter's in its own package is still reported
// when nothing calls it, while a called function and the called method are
// not.
func TestDeclarationNamesAreNoUse(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                        "module example\n\ngo 1.24\n",
		"scripts/exportcheck/allow.txt": "",
		"internal/p/p.go": `package p

func WriteFile() {}

func Parse() {}

func Used() {}

type B struct{ Parse int }

func (B) WriteFile(Used int) {}
`,
		"cmd/c/main.go": `package main

import "example/internal/p"

func main() {
	p.Used()
	var b p.B
	b.WriteFile(b.Parse)
}
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range findings {
		key, _, _ := strings.Cut(f, ":")
		keys = append(keys, key)
	}
	if want := []string{"p.Parse", "p.WriteFile"}; !slices.Equal(keys, want) {
		t.Fatalf("findings %q, want exactly %v", findings, want)
	}
}
