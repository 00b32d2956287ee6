// Command deadexports fails when an exported function or method declared
// in a non-test file has a name that no file in the tree uses: no call,
// method value, selector or interface method of that name anywhere, test
// or non-test. Like the repository's other scripts it is a go/ast scan, so
// matching is by name: a method counts as referenced when any identifier
// of its name appears outside a function declaration's own name. Comments
// and strings do not count.
//
// Methods reached only through an interface defined outside the tree
// (encoding/json's Marshaler, for example) are listed in allow.txt next to
// this file, one "pkg.Type.Method reason" per line. An allowlist entry
// that the scan finds referenced, or that is no longer declared, is an
// error too, so the list stays short.
//
// With -report it also prints the exported functions and methods whose
// name only test files use. Run it from the repository root:
//
//	go run ./scripts/deadexports [-report]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowPath = "scripts/deadexports/allow.txt"

func main() {
	report := flag.Bool("report", false, "also print the exported functions and methods only tests reference")
	flag.Parse()
	if err := run(*report); err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(1)
	}
}

// decl is one exported function or method declared in a non-test file.
type decl struct {
	key  string // "internal/mtcp.Conn.State": directory, receiver, name
	name string
	pos  token.Position
}

// uses counts identifier uses of one name.
type uses struct{ test, nonTest int }

func run(report bool) error {
	decls, refs, err := scan(".")
	if err != nil {
		return err
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}
	var dead, testOnly []decl
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		u := refs[d.name]
		allowed := allow[d.key]
		switch {
		case allowed && u.test+u.nonTest > 0:
			return fmt.Errorf("%s: allowlisted but referenced; drop it from %s", d.key, allowPath)
		case allowed:
		case u.test+u.nonTest == 0:
			dead = append(dead, d)
		case u.nonTest == 0:
			testOnly = append(testOnly, d)
		}
	}
	for k := range allow {
		if !declared[k] {
			return fmt.Errorf("%s: allowlisted but not declared; drop it from %s", k, allowPath)
		}
	}
	if report {
		fmt.Printf("%d exported functions and methods only tests reference:\n", len(testOnly))
		for _, d := range testOnly {
			fmt.Printf("  %-45s %s\n", d.key, d.pos)
		}
	}
	if len(dead) > 0 {
		for _, d := range dead {
			fmt.Fprintf(os.Stderr, "%s: %s is exported but nothing references it\n", d.pos, d.key)
		}
		return fmt.Errorf("%d unreferenced exported function(s) or method(s)", len(dead))
	}
	fmt.Printf("deadexports: %d exported functions and methods, all referenced\n", len(decls))
	return nil
}

// scan parses every Go file under root (skipping testdata and hidden
// directories) and returns the exported declarations in non-test files,
// sorted by key, and the identifier uses per name.
func scan(root string) ([]decl, map[string]uses, error) {
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string]uses{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(name, "_test.go")
		declNames := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fd, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if test || !fd.Name.IsExported() {
				continue
			}
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			key := filepath.ToSlash(rel) + "."
			if fd.Recv != nil {
				t := fd.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				if id, ok := t.(*ast.Ident); ok {
					key += id.Name + "."
				}
			}
			decls = append(decls, decl{key: key + fd.Name.Name, name: fd.Name.Name, pos: fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declNames[id] {
				return true
			}
			u := refs[id.Name]
			if test {
				u.test++
			} else {
				u.nonTest++
			}
			refs[id.Name] = u
			return true
		})
		return nil
	})
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls, refs, err
}

// readAllow returns the keys of "key reason..." lines; blank lines and #
// comments are skipped.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		allow[key] = true
	}
	return allow, sc.Err()
}
