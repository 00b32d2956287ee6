// Command deadexports fails when a function, method, type, var or const
// declared at package level in a non-test file has no use anywhere in the
// tree. It type-checks every package with go/types and resolves each
// identifier to the object it denotes, so a dead method stays dead even
// when some other identifier in the tree has the same name. Uses in test
// files and in nested modules (bench/) count; comments and strings do not.
//
// A method also counts as used when its receiver type, or a pointer to
// it, implements an interface that has the method: an interface declared
// in the tree, in a standard-library package the tree imports (so
// fmt.Stringer reaches String and encoding/json.Marshaler reaches
// MarshalJSON), or error. There is no allowlist.
//
// Naming a type as a method's receiver, or in a package-level blank
// assertion (var _ I = (*T)(nil)), is not a use: both say what T is, not
// that anything needs it.
//
// It also fails on a field of a package-level struct type that nothing
// in the tree writes, so it always holds its zero value. A field is
// written by a keyed or positional composite literal, by an assignment,
// ++ or -- to it or to anything reached through it (a.b.c = x writes b
// and c), by taking its address, or by calling a pointer method on it
// (x.mu.Lock()). A field with a struct tag counts as written: reflection
// (encoding/json) fills it.
//
// main and init functions and blank identifiers are not checked.
// Declarations in nested modules are users and writers only.
//
// With -report it also prints the exported declarations that only test
// files use, the fields that only test files write, and the exported
// fields of package-level *Config and *Options structs that non-test code
// writes only inside the declaring package: a knob whose one writer is
// its own defaults literal or zero-value branch holds one value, so it is
// a constant. Run it from the repository root:
//
//	go run ./scripts/deadexports [-report]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	report := flag.Bool("report", false, "also print the exported declarations only tests use, the fields only tests write and the config fields only their own package writes")
	flag.Parse()
	if err := run(".", *report, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(1)
	}
}

func run(root string, report bool, w io.Writer) error {
	res, err := scan(root)
	if err != nil {
		return err
	}
	if report {
		fmt.Fprintf(w, "%d exported declarations only tests use:\n", len(res.testOnly))
		for _, d := range res.testOnly {
			fmt.Fprintf(w, "  %-45s %s\n", d.key, d.pos)
		}
		fmt.Fprintf(w, "%d fields only tests write:\n", len(res.testWritten))
		for _, d := range res.testWritten {
			fmt.Fprintf(w, "  %-45s %s\n", d.key, d.pos)
		}
		fmt.Fprintf(w, "%d config fields only their own package writes:\n", len(res.selfWritten))
		for _, d := range res.selfWritten {
			fmt.Fprintf(w, "  %-45s %s\n", d.key, d.pos)
		}
	}
	for _, d := range res.dead {
		fmt.Fprintf(os.Stderr, "%s: %s is declared but nothing uses it\n", d.pos, d.key)
	}
	for _, d := range res.unwritten {
		fmt.Fprintf(os.Stderr, "%s: field %s is never written\n", d.pos, d.key)
	}
	if len(res.dead)+len(res.unwritten) > 0 {
		return fmt.Errorf("%d unused declaration(s), %d unwritten field(s)", len(res.dead), len(res.unwritten))
	}
	fmt.Fprintf(w, "deadexports: %d declarations, all used; %d fields, all written\n", res.checked, res.fields)
	return nil
}

// decl is one package-level declaration in a non-test file.
type decl struct {
	key string // "internal/mtcp.Conn.State": directory, receiver, name
	pos token.Position
}

type result struct {
	checked, fields int
	dead, testOnly  []decl // sorted by key
	// unwritten, testWritten and selfWritten are struct fields:
	// "internal/mtcp.Options.CC".
	unwritten, testWritten, selfWritten []decl
}

// pkgDir is the Go files of one directory.
type pkgDir struct {
	path, rel    string // import path; directory relative to the scan root
	nested       bool   // in a nested module: its declarations are not checked
	files, tests []*ast.File
	xtests       []*ast.File // package <name>_test
	pkg          *types.Package
	info         *types.Info
	checking     bool
}

// use records where an object is used, or a field written, from. outside
// is set by a non-test write from a package other than the field's.
type use struct{ test, nonTest, outside bool }

func (u *use) add(test bool) {
	if test {
		u.test = true
	} else {
		u.nonTest = true
	}
}

// loader type-checks the tree. Each package's non-test files are checked
// once and that one *types.Package is shared with every importer, so
// types.Implements holds across packages.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*pkgDir
	stdImp map[*types.Package]bool // standard-library packages the tree imports
	uses   map[token.Pos]use
	writes map[token.Pos]use // struct fields, keyed like uses
	ifaces map[*types.Interface]bool
}

func scan(root string) (*result, error) {
	l := &loader{
		fset:   token.NewFileSet(),
		byPath: map[string]*pkgDir{},
		stdImp: map[*types.Package]bool{},
		uses:   map[token.Pos]use{},
		writes: map[token.Pos]use{},
		ifaces: map[*types.Interface]bool{},
	}
	// The tree has no cgo; without this the source importer would run cgo
	// on the standard library packages that have it.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil)
	dirs, err := l.parse(root)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if len(d.files) > 0 {
			if _, err := l.check(d); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range dirs {
		if err := l.checkTests(d); err != nil {
			return nil, err
		}
	}
	l.implemented(dirs)

	res := &result{}
	for _, d := range dirs {
		if d.nested {
			continue
		}
		for _, f := range d.files {
			for _, id := range declIdents(f) {
				obj := d.info.Defs[id]
				if obj == nil {
					continue
				}
				res.checked++
				dl := decl{key: d.rel + "." + qualified(obj), pos: l.fset.Position(id.Pos())}
				switch u := l.uses[id.Pos()]; {
				case !u.test && !u.nonTest:
					res.dead = append(res.dead, dl)
				case !u.nonTest && id.IsExported():
					res.testOnly = append(res.testOnly, dl)
				}
			}
		}
	}
	byKey := func(ds []decl) {
		sort.Slice(ds, func(i, j int) bool { return ds[i].key < ds[j].key })
	}
	for _, d := range dirs {
		if !d.nested && d.pkg != nil {
			l.fields(d, res)
		}
	}
	byKey(res.dead)
	byKey(res.testOnly)
	byKey(res.unwritten)
	byKey(res.testWritten)
	byKey(res.selfWritten)
	return res, nil
}

// parse reads every Go file under root, skipping testdata, hidden and _
// directories, and returns one pkgDir per directory with Go files.
func (l *loader) parse(root string) ([]*pkgDir, error) {
	type module struct{ dir, path string }
	var dirs []*pkgDir
	mods := map[string]module{} // directory -> its enclosing module
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		mod, ok := mods[filepath.Dir(path)]
		if p, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
			mod, ok = module{path, p}, true
		} else if !os.IsNotExist(err) {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: not inside a module", path)
		}
		mods[path] = mod
		d := &pkgDir{path: mod.path, nested: mod.dir != root}
		if sub, _ := filepath.Rel(mod.dir, path); sub != "." {
			d.path += "/" + filepath.ToSlash(sub)
		}
		rel, _ := filepath.Rel(root, path)
		d.rel = filepath.ToSlash(rel)
		if err := l.parseDir(path, d); err != nil {
			return err
		}
		if len(d.files)+len(d.tests)+len(d.xtests) > 0 {
			dirs = append(dirs, d)
			l.byPath[d.path] = d
		}
		return nil
	})
	return dirs, err
}

// parseDir parses the Go files of dir that build.Default selects into d.
func (l *loader) parseDir(dir string, d *pkgDir) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.files = append(d.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.xtests = append(d.xtests, f)
		default:
			d.tests = append(d.tests, f)
		}
	}
	return nil
}

// modulePath returns the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import resolves tree packages to their shared instance and everything
// else to the standard library, type-checked from source.
func (l *loader) Import(path string) (*types.Package, error) {
	if d := l.byPath[path]; d != nil && len(d.files) > 0 {
		return l.check(d)
	}
	p, err := l.std.Import(path)
	if err == nil {
		l.stdImp[p] = true
	}
	return p, err
}

func (l *loader) check(d *pkgDir) (*types.Package, error) {
	if d.pkg != nil {
		return d.pkg, nil
	}
	if d.checking {
		return nil, fmt.Errorf("import cycle through %s", d.path)
	}
	d.checking = true
	pkg, info, err := l.typeCheck(d.path, d.files, false, l)
	d.pkg, d.info = pkg, info
	return pkg, err
}

// checkTests type-checks the test files of d: the in-package tests as a
// second instance of the package, which nothing imports, and the
// external tests against the shared instance. When that fails and there
// is a test instance, the external tests are checked against it instead,
// as go test builds them, so a name an export_test.go file exports
// resolves. (Against the test instance, a type that reaches them through
// another tree package no longer matches, so the shared instance comes
// first.)
func (l *loader) checkTests(d *pkgDir) error {
	var testPkg *types.Package
	if len(d.tests) > 0 {
		files := append(append([]*ast.File(nil), d.files...), d.tests...)
		pkg, _, err := l.typeCheck(d.path, files, true, l)
		if err != nil {
			return err
		}
		testPkg = pkg
	}
	if len(d.xtests) == 0 {
		return nil
	}
	_, _, err := l.typeCheck(d.path+"_test", d.xtests, true, l)
	if err != nil && testPkg != nil {
		if _, _, err2 := l.typeCheck(d.path+"_test", d.xtests, true, testImporter{l, testPkg}); err2 != nil {
			return fmt.Errorf("%v; against the in-package test instance: %v", err, err2)
		}
		return nil
	}
	return err
}

// testImporter resolves one package to its test instance and every other
// path as the loader does.
type testImporter struct {
	l   *loader
	pkg *types.Package
}

func (t testImporter) Import(path string) (*types.Package, error) {
	if path == t.pkg.Path() {
		return t.pkg, nil
	}
	return t.l.Import(path)
}

// typeCheck checks one package and records every use it resolves, keyed
// by the position of the object's declaration: an in-package test
// instance declares its own copies of the package's objects, at the same
// positions. Uses in test files count as test uses. imp resolves the
// package's imports.
func (l *loader) typeCheck(path string, files []*ast.File, tests bool, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	selfRefs := map[*ast.Ident]bool{}
	for _, f := range files {
		markSelfRefs(f, selfRefs)
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || selfRefs[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		u := l.uses[obj.Pos()]
		u.add(tests && l.isTest(id))
		l.uses[obj.Pos()] = u
	}
	for _, f := range files {
		l.recordWrites(f, info, path, tests && l.isTest(f))
	}
	// Every interface the package's code spells out or uses, named or
	// literal. Those of an in-package test instance have their own copies
	// of the package's types, so types.Implements would not hold against
	// the shared ones.
	if !tests || strings.HasSuffix(path, "_test") {
		for _, tv := range info.Types {
			l.addInterface(tv.Type)
		}
	}
	return pkg, info, nil
}

func (l *loader) isTest(n ast.Node) bool {
	return strings.HasSuffix(l.fset.File(n.Pos()).Name(), "_test.go")
}

// recordWrites records every struct field f, a file of package pkgPath,
// writes.
func (l *loader) recordWrites(f *ast.File, info *types.Info, pkgPath string, test bool) {
	mark := func(v *types.Var) {
		w := l.writes[v.Origin().Pos()]
		w.add(test)
		if !test && v.Pkg().Path() != pkgPath {
			w.outside = true
		}
		l.writes[v.Origin().Pos()] = w
	}
	// path marks the fields a selection passes through: the embedded
	// fields of a promoted field or method, and the field itself.
	path := func(sel *types.Selection) {
		t := sel.Recv()
		idx := sel.Index()
		if sel.Kind() != types.FieldVal {
			idx = idx[:len(idx)-1]
		}
		for _, i := range idx {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				return
			}
			mark(st.Field(i))
			t = st.Field(i).Type()
		}
	}
	// lvalue marks every field along an expression that is written or
	// addressed: a.b[i].c marks c and b.
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			lvalue(e.X)
		case *ast.IndexExpr:
			lvalue(e.X)
		case *ast.StarExpr:
			lvalue(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				path(sel)
				lvalue(e.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lvalue(e)
			}
		case *ast.IncDecStmt:
			lvalue(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lvalue(n.Key)
				lvalue(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lvalue(n.X)
			}
		case *ast.SelectorExpr:
			// A pointer method called on (or taken from) an addressable
			// value writes through it.
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				path(sel)
				if _, isPtr := sel.Recv().Underlying().(*types.Pointer); !isPtr {
					lvalue(n.X)
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				break
			}
			st, ok := deref(tv.Type).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						mark(v)
					}
				} else {
					mark(st.Field(i))
				}
			}
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// fields checks the fields of d's package-level struct types against
// the recorded writes.
func (l *loader) fields(d *pkgDir, res *result) {
	scope := d.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		knobs := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			res.fields++
			if st.Tag(i) != "" {
				continue
			}
			dl := decl{key: d.rel + "." + name + "." + f.Name(), pos: l.fset.Position(f.Pos())}
			switch w := l.writes[f.Pos()]; {
			case !w.test && !w.nonTest:
				res.unwritten = append(res.unwritten, dl)
			case !w.nonTest:
				res.testWritten = append(res.testWritten, dl)
			case !w.outside && knobs && f.Exported():
				res.selfWritten = append(res.selfWritten, dl)
			}
		}
	}
}

func (l *loader) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
		l.ifaces[it] = true
	}
}

// implemented marks the methods of every package-level type in the tree
// that some interface requires of that type or of a pointer to it.
func (l *loader) implemented(dirs []*pkgDir) {
	for p := range l.stdImp {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				l.addInterface(tn.Type())
			}
		}
	}
	l.addInterface(types.Universe.Lookup("error").Type())
	for _, d := range dirs {
		if d.pkg == nil || d.nested {
			continue
		}
		scope := d.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for it := range l.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if obj != nil {
						u := l.uses[obj.Pos()]
						u.nonTest = true
						l.uses[obj.Pos()] = u
					}
				}
			}
		}
	}
}

// declIdents returns the checked package-level names of f.
func declIdents(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	keep := func(id *ast.Ident) {
		if id.Name != "_" {
			ids = append(ids, id)
		}
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			if gd.Recv == nil && (gd.Name.Name == "init" || gd.Name.Name == "main" && f.Name.Name == "main") {
				continue
			}
			keep(gd.Name)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					keep(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						keep(id)
					}
				}
			}
		}
	}
	return ids
}

// markSelfRefs marks the identifiers of f that name a type without using
// it: those in a method's receiver and those in a package-level blank
// assertion (var _ I = (*T)(nil), a spec with a type whose names are all
// blank).
func markSelfRefs(f *ast.File, ids map[*ast.Ident]bool) {
	mark := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				ids[id] = true
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				mark(d.Recv)
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.ValueSpec)
				if s.Type != nil && allBlank(s.Names) {
					mark(s)
				}
			}
		}
	}
}

func allBlank(names []*ast.Ident) bool {
	for _, id := range names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// qualified names obj within its package: "Conn.State" for a method.
func qualified(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Name()
}
