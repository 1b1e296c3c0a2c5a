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
// on purpose, keyed "file: name" as the test reports it. Each reason opens
// with one of the allowedClasses.
var unreadAllowed = map[string]string{
	"internal/cc/bbr/bbr.go: New":                         "accessor: builds the module the registry builds, for the cc, cctest and tcp tests",
	"internal/cc/bbr/bbr.go: BBR.BtlBw":                   "accessor: the bandwidth filter BBR paces from, read by the master-module tests",
	"internal/cc/bbrv2/bbrv2.go: New":                     "accessor: builds the module the registry builds, for the cctest scratch tests",
	"internal/cc/cubic/cubic.go: New":                     "accessor: builds the module the registry builds, for the cc, cctest, apps and simnet tests",
	"internal/cc/reno/reno.go: New":                       "accessor: builds the module the registry builds, for the cctest scratch tests",
	"internal/cpumodel/cpu.go: CPU.OpCycles":              "accessor: the per-op cycle totals Breakdown reports, read by the tcp tests",
	"internal/flows/session.go: Session.Pool":             "accessor: the churn session's conn pool, read by the tcp recycle tests",
	"internal/iperf/iperf.go: Session.Aggregates":         "accessor: the run-wide counters the periodic paths read, checked by the iperf and tcp tests",
	"internal/telemetry/profile.go: Profile.PhaseShare":   "accessor: one phase's share of the profile the report prints, read by the core tests",
	"internal/telemetry/telemetry.go: Bus.Events":         "accessor: the event log the JSONL export writes, read by the core tests",
	"internal/telemetry/telemetry.go: Bus.Filter":         "accessor: the event log by kind, read by the core, faults and repro tests",
	"internal/sim/sim.go: Engine.CorruptQueueForTest":     "fault hook: skews the queue count so the check tests see the audit fire",
	"internal/device/device.go: Spec.BigFreqs":            "reference data: the phone's big-cluster frequency table, beside the little-cluster one the governors read",
	"internal/cpumodel/governor.go: OperatingPoint.Big":   "reference data: whether Table 1's operating point is a big core",
	"internal/repro/repro.go: Point.PaperRTTms":           "reference data: the RTT the paper reports for the grid point",
	"internal/chaos/chaos.go: Budgets.MaxPoolOutstanding": "test reach: the chaos tests lower the pool cap to trip the pool budget in one short run",
}

// allowedClasses are the reasons a declaration may stay in unreadAllowed:
//   - accessor: an accessor or constructor over state the program already
//     keeps and reads, used by another package's tests;
//   - fault hook: a hook named …ForTest that a test uses to inject a fault;
//   - reference data: hardware or paper figures kept beside the model;
//   - test reach: an option a test must set to reach the path it guards
//     within about a second.
var allowedClasses = []string{"accessor: ", "fault hook: ", "reference data: ", "test reach: "}

// TestNothingUnread type-checks every module package with its tests (and
// bench/) against the compiler's export data, and fails on what is declared
// in a non-test file under internal/ or cmd/ and
//
//	(a) is referenced by nothing in the module: a func, method, type, const
//	    or var, or an untagged struct field nothing reads (an assignment,
//	    op-assignment or ++/-- is a write, not a read);
//	(b) is referenced or read only by tests: _test.go files do not count as
//	    readers, except inside Example functions, while bench/ does;
//	(c) is an option nothing sets or reads: a field of a struct with a
//	    withDefaults or WithDefaults method that no program code writes
//	    ("never set") or reads ("never read"), not counting that method.
//	    A keyed composite literal writes its keys, and a write through a
//	    nested field (cfg.Pacing.Stride = …) writes the outer one.
//
// A method is exempt from (a) and (b) when its type satisfies an interface
// that declares it, matched by name and by parameter and result types
// written with full package paths (each package is type-checked from
// export data, so types.Implements cannot match across checks); so are
// main, init, Test*, Example*, Fuzz* and Benchmark*. Anything else
// the tree keeps on purpose goes in unreadAllowed with its reason.
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
		obj   types.Object
		what  string // "method Conn.Pacer", "field Packet.Retx", …
		owner string // a field's struct, as key of its type name
	}
	decls := map[string]declared{} // candidates
	usedAny := map[string]bool{}   // referenced objects and read fields
	usedProg := map[string]bool{}  // the same, by program code only
	optRead := map[string]bool{}   // fields program code reads outside their withDefaults
	optSet := map[string]bool{}    // fields program code writes outside their withDefaults
	options := map[string]bool{}   // keys of types with a withDefaults method
	// Every interface the module's packages and their imports declare, as
	// its methods' keys (see methodKey), seeded with error and the methods
	// the errors package finds through interfaces inside its functions.
	ifaces := map[string][]string{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seenIface[it] || it.NumMethods() == 0 {
			return
		}
		seenIface[it] = true
		keys := make([]string, it.NumMethods())
		for i := range keys {
			keys[i] = methodKey(it.Method(i))
		}
		sort.Strings(keys)
		ifaces[strings.Join(keys, "; ")] = keys
	}
	seeds, err := (&types.Config{}).Check("seeds", fset, []*ast.File{parseSeeds(t, fset)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range seeds.Scope().Names() {
		addIface(seeds.Scope().Lookup(name).Type())
	}
	var named []*types.Named // non-interface types program files declare
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
			isTest := strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
			if declaredHere && !isTest {
				collectDecls(f, info, func(obj types.Object, what string, owner types.Object) {
					if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
						named = append(named, tn.Type().(*types.Named))
					}
					d := declared{obj: obj, what: what}
					if owner != nil {
						d.owner = key(owner)
					}
					decls[key(obj)] = d
					if fn, ok := obj.(*types.Func); ok && isWithDefaults(fn.Name()) {
						options[key(recvTypeName(fn))] = true
					}
				})
			}
			collectUses(f, info, func(u use) {
				if u.obj.Pkg() == nil || !strings.HasPrefix(u.obj.Pkg().Path(), module+"/") {
					return
				}
				k := key(u.obj)
				prog := !isTest || u.inExample
				if !u.write {
					usedAny[k] = true
					if prog {
						usedProg[k] = true
					}
				}
				if !prog || !u.field {
					return
				}
				if u.defaultsOf != nil && decls[k].owner == key(u.defaultsOf) {
					return // an option's own defaults fill
				}
				if u.write {
					optSet[k] = true
				} else {
					optRead[k] = true
				}
			})
		}
	}

	// A method is exempt when a type's method set satisfies an interface
	// that declares it; a promoted method counts for the type it is
	// declared on.
	satisfies := map[string]bool{}
	for _, typ := range named {
		ms := types.NewMethodSet(types.NewPointer(typ))
		have := make(map[string]*types.Func, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			have[methodKey(fn)] = fn
		}
		for _, keys := range ifaces {
			if !slices.ContainsFunc(keys, func(k string) bool { return have[k] == nil }) {
				for _, k := range keys {
					satisfies[key(have[k].Origin())] = true
				}
			}
		}
	}

	for name, reason := range unreadAllowed {
		if !slices.ContainsFunc(allowedClasses, func(class string) bool { return strings.HasPrefix(reason, class) }) {
			t.Errorf("unreadAllowed[%q] names no class of %q", name, allowedClasses)
		}
	}
	allowedHit := map[string]bool{}
	var flagged []string
	for k, d := range decls {
		kind, name, _ := strings.Cut(d.what, " ")
		var faults []string
		switch {
		case kind == "method" && satisfies[k]:
		case !usedAny[k] && kind == "field":
			faults = append(faults, "is never read")
		case !usedAny[k]:
			faults = append(faults, "is never referenced")
		case !usedProg[k]:
			faults = append(faults, "is used only by tests")
		}
		if kind == "field" && options[d.owner] {
			if !optSet[k] {
				faults = append(faults, "is an option never set")
			}
			if !optRead[k] && usedProg[k] {
				faults = append(faults, "is an option never read")
			}
		}
		if len(faults) == 0 {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		if _, ok := unreadAllowed[file+": "+name]; ok {
			allowedHit[file+": "+name] = true
			continue
		}
		flagged = append(flagged, fmt.Sprintf("%s:%d: %s %s", file, pos.Line, d.what, strings.Join(faults, " and ")))
	}
	for name := range unreadAllowed {
		if !allowedHit[name] {
			flagged = append(flagged, "unreadAllowed["+name+"] allows what nothing flags")
		}
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Error(f)
	}
	if len(decls) == 0 || len(options) == 0 {
		t.Fatal("found no declarations or options to check")
	}
}

// methodKey writes a method as its name and its parameter and result
// types with full package paths; parameter names do not count, and an
// unexported name is qualified by its package.
func methodKey(fn *types.Func) string {
	var b strings.Builder
	if !fn.Exported() {
		b.WriteString(fn.Pkg().Path() + ".")
	}
	b.WriteString(fn.Name())
	sig := fn.Type().(*types.Signature)
	tuple := func(tu *types.Tuple, variadic bool) {
		b.WriteByte('(')
		for i := 0; i < tu.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			typ := tu.At(i).Type()
			if variadic && i == tu.Len()-1 {
				b.WriteString("...")
				typ = typ.(*types.Slice).Elem()
			}
			b.WriteString(types.TypeString(typ, (*types.Package).Path))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params(), sig.Variadic())
	tuple(sig.Results(), false)
	return b.String()
}

// parseSeeds parses the interfaces every module satisfies implicitly:
// error, and the ones errors.Unwrap, errors.Is and errors.As assert.
func parseSeeds(t *testing.T, fset *token.FileSet) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, "seeds.go", `package seeds
type (
	e  interface{ Error() string }
	u  interface{ Unwrap() error }
	us interface{ Unwrap() []error }
	is interface{ Is(error) bool }
	as interface{ As(any) bool }
)
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func isWithDefaults(name string) bool { return name == "withDefaults" || name == "WithDefaults" }

// recvTypeName returns the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return recv.(*types.Named).Obj()
}

// collectDecls reports the package-level declarations, methods and untagged
// named struct fields declared in f, each field with its struct's type name.
func collectDecls(f *ast.File, info *types.Info, report func(obj types.Object, what string, owner types.Object)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[d.Name]
			name := d.Name.Name
			if d.Recv != nil {
				report(obj, "method "+recvTypeName(obj.(*types.Func)).Name()+"."+name, nil)
				continue
			}
			if name == "main" || name == "init" || name == "_" {
				continue
			}
			if !slices.ContainsFunc([]string{"Test", "Example", "Fuzz", "Benchmark"}, func(prefix string) bool {
				return strings.HasPrefix(name, prefix)
			}) {
				report(obj, "func "+name, nil)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					report(info.Defs[spec.Name], "type "+spec.Name.Name, nil)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.Name != "_" {
							report(info.Defs[id], d.Tok.String()+" "+id.Name, nil)
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
						report(info.Defs[id], "field "+owner+"."+id.Name, info.Defs[spec.Name])
					}
				}
			}
			return true
		})
		return false
	})
}

// use is one reference collectUses finds.
type use struct {
	obj        types.Object
	field      bool            // obj is a struct field
	write      bool            // the reference writes the field and does not read it
	inExample  bool            // it sits in an Example function
	defaultsOf *types.TypeName // it sits in this type's withDefaults method
}

// collectUses reports every object f references, except a method's own
// receiver type, and every field f reads or writes. A selector that is only
// assigned to is a write; so is a struct-valued selector on the path to one
// (s.stats.n++ writes n and does not read stats), and a composite literal's
// key (or, unkeyed, each of its fields).
func collectUses(f *ast.File, info *types.Info, report func(use)) {
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

	var at use // the enclosing function's context
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
				u := at
				u.obj, u.field, u.write = s.Obj().(*types.Var).Origin(), true, writes[n]
				report(u)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				u := at
				u.field, u.write = true, true
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					u.obj = info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()
				} else {
					u.obj = st.Field(i).Origin()
				}
				report(u)
			}
		case *ast.Ident:
			u := at
			switch obj := info.Uses[n].(type) {
			case nil:
				return true
			case *types.Func:
				u.obj = obj.Origin()
			case *types.Var:
				if obj.IsField() {
					return true // read through a selector, written by a literal
				}
				u.obj = obj.Origin()
			default:
				u.obj = obj
			}
			report(u)
		}
		return true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok {
			at = use{inExample: fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example")}
			if fn.Recv != nil && isWithDefaults(fn.Name.Name) {
				at.defaultsOf = recvTypeName(info.Defs[fn.Name].(*types.Func))
			}
			// A method's receiver names its own type; that is no use of it.
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
			at = use{}
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
