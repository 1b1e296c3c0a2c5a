package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The tests in this file read the module as `go list -export -deps -test`
// reports it: every package, its test variants, their imports and the
// compiler's export data for each.

const module = "mobbr"

// listedPackage is the part of a `go list -json` record these tests read.
type listedPackage struct {
	ImportPath string // "P", "P [P.test]" or "P_test [P.test]"
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

var (
	treeOnce sync.Once
	treeRoot string
	treePkgs []*listedPackage
	treeErr  error
)

// listTree runs go list once per test binary, from the module root.
func listTree(t *testing.T) (root string, pkgs []*listedPackage) {
	t.Helper()
	treeOnce.Do(func() {
		treeRoot, treeErr = filepath.Abs(filepath.Join("..", ".."))
		if treeErr != nil {
			return
		}
		cmd := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...")
		cmd.Dir = treeRoot
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			treeErr = fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
			return
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(listedPackage)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				treeErr = err
				return
			}
			treePkgs = append(treePkgs, p)
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treeRoot, treePkgs
}

// rel names a module package by its path inside the module ("internal/cc").
func rel(importPath string) string {
	return strings.TrimPrefix(importPath, module+"/")
}

func inModule(p *listedPackage) bool {
	return p.Module != nil && p.Module.Path == module
}

// TestPackageMap pins the import edges DESIGN's package table describes:
// the engine, the units and the slab sit at the bottom, the congestion
// modules see only their interface and three leaf helpers, and the
// experiment layers are imported only from above.
func TestPackageMap(t *testing.T) {
	_, pkgs := listTree(t)
	importsOnly := func(from string, imports []string, allowed ...string) {
		for _, imp := range imports {
			if strings.HasPrefix(imp, module+"/") && !slices.Contains(allowed, rel(imp)) {
				t.Errorf("%s imports %s; it may import only %v", from, rel(imp), allowed)
			}
		}
	}
	importedOnlyBy := map[string][]string{
		"internal/repro": {"cmd/mobbr", "bench"},
		"internal/obs":   {"cmd/mobbr", "bench", "internal/repro"},
		"internal/chaos": {"cmd/mobbr"},
	}
	seen := 0
	for _, p := range pkgs {
		if !inModule(p) || strings.Contains(p.ImportPath, " ") || strings.HasSuffix(p.ImportPath, ".test") {
			continue // test variants and test mains
		}
		seen++
		name := rel(p.ImportPath)
		switch {
		case name == "internal/sim", name == "internal/units", name == "internal/slab":
			importsOnly(name, p.Imports)
		case name == "internal/cc":
			importsOnly(name, p.Imports, "internal/units")
		case strings.HasPrefix(name, "internal/cc/"):
			importsOnly(name, p.Imports, "internal/cc", "internal/slab", "internal/stats", "internal/units")
		}
		for _, imp := range p.Imports {
			if allowed, pinned := importedOnlyBy[rel(imp)]; pinned && !slices.Contains(allowed, name) {
				t.Errorf("%s imports %s; only %v may", name, rel(imp), allowed)
			}
		}
	}
	if seen == 0 {
		t.Fatal("go list reported no module packages")
	}
}

// unreadAllowed lists what TestNothingUnread would flag but the tree keeps
// on purpose, keyed "file: name" as the test reports it, with the reason.
var unreadAllowed = map[string]string{
	"internal/device/device.go: Spec.BigFreqs": "hardware reference data: the phone's big-cluster frequency table, beside the little-cluster one the governors read",
}

// TestNothingUnread type-checks every module package with its tests (and
// bench/) against the compiler's export data, and fails on
//   - a func, method, type, const or var declared in a non-test file under
//     internal/ or cmd/ that nothing in the module references, and
//   - a struct field without a tag declared there that nothing reads
//     (an assignment, op-assignment or ++/-- is a write, not a read).
//
// Tests and bench/ count as readers.
//
// Methods whose name some interface declares, and main, init, Test*,
// Example*, Fuzz* and Benchmark* are exempt. Anything else the tree keeps
// on purpose goes in unreadAllowed with its reason.
func TestNothingUnread(t *testing.T) {
	root, pkgs := listTree(t)
	byID := make(map[string]*listedPackage, len(pkgs))
	for _, p := range pkgs {
		byID[p.ImportPath] = p
	}

	fset := token.NewFileSet()
	// key names a declaration independently of which type-check produced
	// the object: export data keeps file and line, not the column.
	key := func(obj types.Object) string {
		pos := fset.Position(obj.Pos())
		return fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, obj.Name())
	}
	type declared struct {
		obj  types.Object
		what string // "method Conn.Pacer", "field Packet.Retx", …
	}
	decls := map[string]declared{} // candidates of kind (a) and (b)
	used := map[string]bool{}      // referenced objects and read fields
	// Seeded with error's method and those the errors package finds through
	// interfaces it declares inside its functions.
	ifaceMethods := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	seenIface := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seenPkg := map[*types.Package]bool{}
	var addPkgIfaces func(*types.Package)
	addPkgIfaces = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			addPkgIfaces(imp)
		}
	}

	for _, p := range pkgs {
		if !inModule(p) || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		// Check each package once, with its in-package tests when it has
		// them, plus its external test package. A package recompiled for
		// another package's test ("P [Q.test]") adds nothing new.
		path, variant, isVariant := strings.Cut(p.ImportPath, " [")
		if isVariant {
			tested := strings.TrimSuffix(variant, ".test]")
			if path != tested && path != tested+"_test" {
				continue
			}
		} else if byID[path+" ["+path+".test]"] != nil {
			continue
		}

		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(imp string) (io.ReadCloser, error) {
			id := imp
			if mapped, ok := p.ImportMap[imp]; ok {
				id = mapped
			}
			dep := byID[id]
			if dep == nil || dep.Export == "" {
				return nil, fmt.Errorf("no export data for %s", id)
			}
			return os.Open(dep.Export)
		})}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		addPkgIfaces(pkg)
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}

		declaredHere := strings.HasPrefix(rel(path), "internal/") || strings.HasPrefix(rel(path), "cmd/")
		for _, f := range files {
			if declaredHere && !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
				collectDecls(f, info, func(obj types.Object, what string) {
					decls[key(obj)] = declared{obj, what}
				})
			}
			collectUses(f, info, func(obj types.Object) {
				if obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), module+"/") {
					used[key(obj)] = true
				}
			})
		}
	}

	var flagged []string
	for k, d := range decls {
		if used[k] {
			continue
		}
		kind, name, _ := strings.Cut(d.what, " ")
		if kind == "method" && ifaceMethods[d.obj.Name()] {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		if _, ok := unreadAllowed[file+": "+name]; ok {
			continue
		}
		never := "referenced"
		if kind == "field" {
			never = "read"
		}
		flagged = append(flagged, fmt.Sprintf("%s:%d: %s is never %s", file, pos.Line, d.what, never))
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Error(f)
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations to check")
	}
}

// collectDecls reports the package-level declarations, methods and untagged
// named struct fields declared in f.
func collectDecls(f *ast.File, info *types.Info, report func(types.Object, string)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[d.Name]
			name := d.Name.Name
			if d.Recv != nil {
				recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				report(obj, "method "+recv.(*types.Named).Obj().Name()+"."+name)
				continue
			}
			if name == "main" || name == "init" || name == "_" {
				continue
			}
			if !slices.ContainsFunc([]string{"Test", "Example", "Fuzz", "Benchmark"}, func(prefix string) bool {
				return strings.HasPrefix(name, prefix)
			}) {
				report(obj, "func "+name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					report(info.Defs[spec.Name], "type "+spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.Name != "_" {
							report(info.Defs[id], d.Tok.String()+" "+id.Name)
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		owner := spec.Name.Name
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag != nil {
					continue
				}
				for _, id := range field.Names {
					if id.Name != "_" {
						report(info.Defs[id], "field "+owner+"."+id.Name)
					}
				}
			}
			return true
		})
		return false
	})
}

// collectUses reports every object f references, except a method's own
// receiver type, and every field f reads. A selector that is only assigned
// to is a write; so is a struct-valued selector on the path to one
// (s.stats.n++ writes n and does not read stats).
func collectUses(f *ast.File, info *types.Info, report func(types.Object)) {
	writes := map[*ast.SelectorExpr]bool{}
	var markWrite func(ast.Expr)
	markWrite = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			writes[e] = true
			if _, isStruct := info.TypeOf(e.X).Underlying().(*types.Struct); isStruct && !sel.Indirect() {
				markWrite(e.X)
			}
		case *ast.IndexExpr:
			if _, isArray := info.TypeOf(e.X).Underlying().(*types.Array); isArray {
				markWrite(e.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				markWrite(lhs)
				// x.f = append(x.f, …) only grows what it writes.
				if len(n.Rhs) == len(n.Lhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 && isAppend(info, call) &&
						types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						markWrite(call.Args[0])
					}
				}
			}
		case *ast.IncDecStmt:
			markWrite(n.X)
		}
		return true
	})

	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !writes[n] {
				report(s.Obj().(*types.Var).Origin())
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case nil:
			case *types.Func:
				report(obj.Origin())
			case *types.Var:
				if !obj.IsField() { // a field is read through a selector
					report(obj.Origin())
				}
			default:
				report(obj)
			}
		}
		return true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok {
			// A method's receiver names its own type; that is no use of it.
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
			return false
		}
		return visit(n)
	})
}

// isAppend reports whether call is the append builtin.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
