// Command exportcheck lists the exported functions and methods under
// internal/ that no non-test file of the repository names. It parses every
// non-test .go file below the root (go/parser only: no type checking, no
// build; testdata and hidden directories aside, bench/ included) and counts
// as a use of
//
//   - function F of package p: a bare F elsewhere in p's files, or a selector
//     q.F in a file that imports p as q;
//   - method M: a selector x.M anywhere, or a method M of an interface type.
//
// A use inside the declaration's own body does not count, nor does a name a
// declaration introduces (of a function, method, type, field or parameter),
// so a method or field named F is no use of function F. Methods match by
// name alone, so the check errs towards silence. Names meant to stand unnamed
// are listed with a one-line reason in allow.txt beside this file; an entry
// that no longer names an unused declaration is reported too.
//
//	go run ./scripts/exportcheck [root]
//
// prints one line per finding and exits 1 if there is any.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// use is one occurrence of a name: in file f of directory dir, at pos. A
// selector q.F records the directory q imports as qual.
type use struct {
	f         *ast.File
	dir, qual string
	pos       token.Pos
	selector  bool
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exportcheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func check(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("go.mod: no module line")
	}
	module := string(m[1])
	allow, err := readAllow(filepath.Join(root, "scripts", "exportcheck", "allow.txt"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	files := map[*ast.File]string{} // file -> its directory, slash-separated
	pkgName := map[string]string{}  // directory -> package name
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && p != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")):
			return filepath.SkipDir
		case e.IsDir():
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		files[f] = filepath.ToSlash(rel)
		pkgName[files[f]] = f.Name.Name
		return err
	})
	if err != nil {
		return nil, err
	}

	uses := map[string][]use{}
	for f, dir := range files {
		imports := map[string]string{} // local name -> directory
		for _, is := range f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if d, ok := strings.CutPrefix(p, module+"/"); ok {
				name := pkgName[d]
				if name == "" {
					name = path.Base(d)
				}
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = d
			}
		}
		// sels holds the identifiers that are not bare uses: selectors,
		// interface methods, and the names a declaration introduces.
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				sels[n.Name] = true
			case *ast.TypeSpec:
				sels[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					sels[id] = true
				}
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				u := use{f: f, dir: dir, pos: n.Sel.Pos(), selector: true}
				if x, ok := n.X.(*ast.Ident); ok {
					u.qual = imports[x.Name]
				}
				uses[n.Sel.Name] = append(uses[n.Sel.Name], u)
			case *ast.InterfaceType:
				for _, fld := range n.Methods.List {
					for _, id := range fld.Names {
						sels[id] = true
						uses[id.Name] = append(uses[id.Name], use{f: f, dir: dir, pos: id.Pos(), selector: true})
					}
				}
			case *ast.Ident:
				if !sels[n] {
					uses[n.Name] = append(uses[n.Name], use{f: f, dir: dir, pos: n.Pos()})
				}
			}
			return true
		})
	}

	var findings []string
	unused := map[string]bool{}
	for f, dir := range files {
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || named(fd, f, dir, uses[fd.Name.Name]) {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			unused[key] = true
			if _, ok := allow[key]; !ok {
				findings = append(findings, fmt.Sprintf("%s: exported, named by no non-test file (%s)", key, fset.Position(fd.Pos())))
			}
		}
	}
	for key := range allow {
		if !unused[key] {
			findings = append(findings, fmt.Sprintf("allow.txt: %s is not an unused exported declaration; drop the entry", key))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// named reports whether one of us, outside fd's own body, names fd, which is
// declared in file f of directory dir.
func named(fd *ast.FuncDecl, f *ast.File, dir string, us []use) bool {
	for _, u := range us {
		switch {
		case u.f == f && u.pos >= fd.Pos() && u.pos < fd.End():
			// the declaration itself, or a call from its own body
		case fd.Recv != nil:
			if u.selector {
				return true
			}
		case u.selector && u.qual == dir, !u.selector && u.dir == dir:
			return true
		}
	}
	return false
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// readAllow reads the allow-list: "key reason" a line, blank lines and lines
// starting with # skipped. Every entry must carry a reason.
func readAllow(name string) (map[string]string, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if _, dup := allow[key]; dup || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s: listed twice, or without a reason", name, n+1, key)
		}
		allow[key] = reason
	}
	return allow, nil
}
