package repro_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Each layer under internal/ exposes only what the code above it calls
// (ROADMAP aim 2). TestInternalSurface holds that: every package-level
// identifier, every method of a named type and every interface method
// declared under internal/ must be referenced from non-test code of the root
// module or of benchmark/. An identifier that only tests call belongs in the
// tests. Exempt are methods that satisfy an interface the non-test code names
// (anonymous ones included), methods named String, Error or Unwrap, and the
// constants of an iota group one of whose members is referenced.

// internalPrefix marks the packages whose declarations are checked.
const internalPrefix = "repro/internal/"

// srcPkg is one package's non-test files, parsed.
type srcPkg struct {
	path  string
	files []*ast.File
}

// unreferenced is one declaration the gate rejects.
type unreferenced struct {
	pos  token.Position
	name string // pkg.Name or pkg.Type.Method
}

func TestInternalSurface(t *testing.T) {
	fset := token.NewFileSet()
	var pkgs []srcPkg
	for _, dir := range []string{".", "benchmark"} {
		found, err := listPackages(fset, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, found...)
	}
	bad, err := unreferencedDecls(fset, pkgs, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range bad {
		file := u.pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil {
			file = rel
		}
		t.Errorf("%s:%d: %s has no caller outside tests: delete it, or move it into the package's _test.go",
			file, u.pos.Line, u.name)
	}
}

// TestInternalSurfaceVerdicts runs the gate's checker over small in-memory
// modules: an internal package lib and a command that calls it.
func TestInternalSurfaceVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name, lib, user string
		want            []string // the declarations the gate rejects
	}{{
		name: "planted test-only export is caught",
		lib:  "func Used() {}\nfunc Planted() {}",
		user: "lib.Used()",
		want: []string{"lib.Planted"},
	}, {
		name: "planted unexported dead function is caught",
		lib:  "func Used() {}\nfunc dead() {}",
		user: "lib.Used()",
		want: []string{"lib.dead"},
	}, {
		name: "dead method is caught",
		lib:  "type T struct{}\nfunc (T) Used() {}\nfunc (T) Dead() {}",
		user: "lib.T{}.Used()",
		want: []string{"lib.T.Dead"},
	}, {
		name: "method satisfying an anonymous interface passes",
		lib:  "type T struct{}\nfunc (*T) Hidden() int { return 1 }\nfunc New() any { return &T{} }",
		user: "if h, ok := lib.New().(interface{ Hidden() int }); ok { _ = h.Hidden() }",
	}, {
		name: "method satisfying a named interface passes, the interface method nobody calls is caught",
		lib:  "type I interface{ M() }\ntype T struct{}\nfunc (T) M() {}\nfunc Take(I) {}",
		user: "lib.Take(lib.T{})",
		want: []string{"lib.I.M"},
	}, {
		name: "iota sibling passes",
		lib:  "type Kind int\nconst (\n\tKindA Kind = iota\n\tKindB\n\tKindC\n)",
		user: "_ = lib.KindA",
	}, {
		name: "unreferenced constant of a plain group is caught",
		lib:  "const (\n\tA = 1\n\tB = 2\n)",
		user: "_ = lib.A",
		want: []string{"lib.B"},
	}, {
		name: "generic method used through an instantiation passes",
		lib:  "type Box[T any] struct{ v T }\nfunc (b *Box[T]) Put(v T) { b.v = v }\nfunc (b *Box[T]) Get() T { return b.v }\nfunc (b *Box[T]) Drop() {}",
		user: "var b lib.Box[int]\nb.Put(1)\n_ = b.Get()",
		want: []string{"lib.Box.Drop"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			parse := func(name, src string) *ast.File {
				f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			pkgs := []srcPkg{
				{internalPrefix + "lib", []*ast.File{parse("lib.go", "package lib\n"+tc.lib)}},
				{"repro/cmd/user", []*ast.File{parse("user.go", "package main\nimport \""+internalPrefix+"lib\"\nfunc main() {\n"+tc.user+"\n}")}},
			}
			bad, err := unreferencedDecls(fset, pkgs, importer.Default())
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, u := range bad {
				got = append(got, u.name)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("gate rejects %v, want %v", got, tc.want)
			}
		})
	}
}

// listPackages parses the non-test files of every package of the module in
// dir, as go list resolves them (build constraints applied).
func listPackages(fset *token.FileSet, dir string) ([]srcPkg, error) {
	out, err := exec.Command("go", "-C", dir, "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []srcPkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 || f[2] == "" {
			continue
		}
		p := srcPkg{path: f[0]}
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, file)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// unreferencedDecls type-checks pkgs from source (each once, imports among
// them resolved to each other, anything else through std) and returns the
// declarations of the internal/ packages that no file of pkgs references,
// sorted by position.
func unreferencedDecls(fset *token.FileSet, pkgs []srcPkg, std types.Importer) ([]unreferenced, error) {
	c := &surfaceChecker{
		fset:    fset,
		src:     map[string]*srcPkg{},
		checked: map[string]*types.Package{},
		std:     std,
		used:    map[types.Object]bool{},
		ifaces:  map[*types.Interface]bool{},
		walked:  map[types.Type]bool{},
	}
	for i := range pkgs {
		c.src[pkgs[i].path] = &pkgs[i]
	}
	for _, p := range pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, err
		}
	}
	var bad []unreferenced
	for _, p := range pkgs {
		if strings.HasPrefix(p.path, internalPrefix) {
			bad = append(bad, c.unreferencedIn(p)...)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		a, b := bad[i].pos, bad[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return bad, nil
}

type surfaceChecker struct {
	fset    *token.FileSet
	src     map[string]*srcPkg
	checked map[string]*types.Package
	std     types.Importer
	used    map[types.Object]bool
	ifaces  map[*types.Interface]bool // non-empty interfaces the code names
	walked  map[types.Type]bool
}

// Import type-checks a package of the set from source, once, and defers
// every other path to the standard-library importer.
func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	p, ok := c.src[path]
	if !ok {
		return c.std.Import(path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, p.files, info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	for _, obj := range info.Uses {
		c.used[origin(obj)] = true
	}
	for _, sel := range info.Selections {
		c.used[origin(sel.Obj())] = true
	}
	for _, tv := range info.Types {
		c.walk(tv.Type)
	}
	return pkg, nil
}

// origin maps a member of a generic instantiation to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// walk records every non-empty interface that t is or is built from:
// parameters, results, elements and fields, through the named types of the
// checked packages (a standard-library named type is not expanded).
func (c *surfaceChecker) walk(t types.Type) {
	if t == nil || c.walked[t] {
		return
	}
	c.walked[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			c.walk(it)
		} else if t.Obj().Pkg() != nil && c.src[t.Obj().Pkg().Path()] != nil {
			c.walk(t.Underlying())
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			c.ifaces[t] = true
		}
	case *types.Pointer:
		c.walk(t.Elem())
	case *types.Slice:
		c.walk(t.Elem())
	case *types.Array:
		c.walk(t.Elem())
	case *types.Chan:
		c.walk(t.Elem())
	case *types.Map:
		c.walk(t.Key())
		c.walk(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			c.walk(t.At(i).Type())
		}
	case *types.Signature:
		c.walk(t.Params())
		c.walk(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.walk(t.Field(i).Type())
		}
	}
}

// unreferencedIn lists p's package-level identifiers, methods and interface
// methods that nothing references and no exemption covers.
func (c *surfaceChecker) unreferencedIn(p srcPkg) []unreferenced {
	pkg := c.checked[p.path]
	iotaGroupUsed := c.iotaGroups(p, pkg)
	var bad []unreferenced
	report := func(obj types.Object, name string) {
		bad = append(bad, unreferenced{c.fset.Position(obj.Pos()), pkg.Name() + "." + name})
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" {
			continue
		}
		if !c.used[obj] && !iotaGroupUsed[obj] {
			report(obj, name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumExplicitMethods(); i++ {
				if m := it.ExplicitMethod(i); !c.used[m] {
					report(m, name+"."+m.Name())
				}
			}
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !c.used[m] && !c.satisfies(named, m.Name()) {
				report(m, name+"."+m.Name())
			}
		}
	}
	return bad
}

// satisfies reports whether the method called name of named (or of a pointer
// to it) is exempt: it has one of the names the standard library calls
// through its own interfaces, or it is a method of an interface named in the
// checked code that named or *named implements.
func (c *surfaceChecker) satisfies(named *types.Named, name string) bool {
	switch name {
	case "String", "Error", "Unwrap":
		return true
	}
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for it := range c.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// iotaGroups returns the constants of p that belong to a parenthesised const
// declaration using iota one of whose constants is referenced.
func (c *surfaceChecker) iotaGroups(p srcPkg, pkg *types.Package) map[types.Object]bool {
	exempt := map[types.Object]bool{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !usesIota(gd) {
				continue
			}
			var group []types.Object
			used := false
			for _, s := range gd.Specs {
				for _, id := range s.(*ast.ValueSpec).Names {
					if obj := pkg.Scope().Lookup(id.Name); obj != nil && id.Name != "_" {
						group = append(group, obj)
						used = used || c.used[obj]
					}
				}
			}
			if used {
				for _, obj := range group {
					exempt[obj] = true
				}
			}
		}
	}
	return exempt
}

func usesIota(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
