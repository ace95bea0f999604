package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface holds the module to the surface its programs use.
// It type-checks the non-test code of every package of this module and
// of the benchmark module in bench/ (a second root: it drives the
// daemon and imports internal packages), and fails on
//
//   - an exported package-level name, method or interface method, or a
//     struct field, that no non-test code outside its own declaration
//     references: a name only tests reach is a test helper, and one
//     nothing reaches is dead;
//   - a struct field that non-test code writes (a composite-literal key,
//     an assignment, ++ or --) but never reads.
//
// A method counts as used when its type implements an interface, of
// this module or of any package the programs link, that has the
// method: the call goes through the interface. A field with a json or
// stat tag counts as read: encoding/json and obs.WriteStats read it by
// reflection. What no such rule explains is in surfaceAllowed.
func TestExportedSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	s := loadSurface(t)
	var bad []string
	for _, obj := range s.candidates {
		if key := s.key(obj); !surfaceAllowed[key] && s.reads[obj] == 0 {
			switch {
			case s.writes[obj] > 0:
				bad = append(bad, key+": written, never read")
			case !surfaceExempt[obj.Pkg().Path()] && !s.viaInterface(obj):
				bad = append(bad, key+": no non-test code uses it")
			}
		}
	}
	slices.Sort(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for key := range surfaceAllowed {
		if !s.allowedSeen[key] {
			t.Errorf("surfaceAllowed lists %s, which is not declared: drop it", key)
		}
	}
}

// surfaceExempt names the packages whose exported identifiers need no
// non-test user: the module's public API, and the crash oracle's
// workload, whose exported functions exist for its tests. Their fields
// are still held to the written-never-read rule.
var surfaceExempt = map[string]bool{
	"repro":                   true,
	"repro/internal/walcrash": true,
}

// surfaceAllowed names the identifiers the rules cannot see a use of.
var surfaceAllowed = map[string]bool{
	// errors.Is and errors.As call Unwrap through an interface the
	// errors package does not export.
	"repro/internal/relational.ConstraintError.Unwrap": true,
	"repro/internal/server.codeError.Unwrap":           true,
}

// listedPackage is the part of `go list -json` this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// surface is the type-checked non-test code of both modules.
type surface struct {
	fset       *token.FileSet
	candidates []types.Object // in declaration order
	declOf     map[types.Object][]ast.Node
	reads      map[types.Object]int
	writes     map[types.Object]int
	ifaces     []*types.Interface
	wholeRead  map[*types.Struct]bool
	// ifaceUsed reports whether an interface method counts as called.
	ifaceUsed   func(*types.Func) bool
	allowedSeen map[string]bool
}

func goListDeps(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

func loadSurface(t *testing.T) *surface {
	t.Helper()
	// -deps lists a package after everything it imports, so one pass
	// type-checks each module package after its imports.
	var order []listedPackage
	exports := map[string]string{}
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListDeps(t, dir) {
			if seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			if p.Module != nil && (p.Module.Path == "repro" || p.Module.Path == "repro/bench") {
				order = append(order, p)
			} else {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	s := &surface{
		fset:        token.NewFileSet(),
		declOf:      map[types.Object][]ast.Node{},
		reads:       map[types.Object]int{},
		writes:      map[types.Object]int{},
		wholeRead:   map[*types.Struct]bool{},
		allowedSeen: map[string]bool{},
	}
	gc := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	// Every interface of every linked package can carry a call.
	for path := range exports {
		if p, err := conf.Importer.Import(path); err == nil {
			s.addInterfaces(p.Scope())
		}
	}
	s.ifaces = append(s.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	type checkedFiles struct {
		files []*ast.File
		info  *types.Info
	}
	var all []checkedFiles
	for _, lp := range order {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(s.fset, lp.Dir+"/"+name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(lp.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		all = append(all, checkedFiles{files, info})
		if lp.Module.Path == "repro" {
			s.addCandidates(files, info)
		}
		s.addInterfaces(pkg.Scope())
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, c := range all {
		s.countUses(c.files, c.info)
	}
	s.ifaceUsed = func(m *types.Func) bool {
		p := m.Pkg()
		return p == nil || checked[p.Path()] == nil || s.reads[m] > 0
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (s *surface) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
			if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
}

// addCandidates records what the rules judge in one package: its
// exported package-level names and methods, the exported methods of
// its interfaces, and every field of its named struct types. Each remembers the
// syntax that declares it, inside which a use does not count.
func (s *surface) addCandidates(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if d.Recv != nil {
					if tn := recvTypeName(d, info); tn != nil {
						// A type's own receivers do not use it.
						s.declOf[tn] = append(s.declOf[tn], d.Recv)
					}
				}
				s.declOf[obj] = append(s.declOf[obj], d)
				if obj.Exported() {
					s.candidates = append(s.candidates, obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if obj := info.Defs[n]; obj.Exported() {
								s.candidates = append(s.candidates, obj)
								s.declOf[obj] = append(s.declOf[obj], sp)
							}
						}
					case *ast.TypeSpec:
						tn := info.Defs[sp.Name]
						s.declOf[tn] = append(s.declOf[tn], sp)
						if tn.Exported() {
							s.candidates = append(s.candidates, tn)
						}
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							s.addFields(ty, info)
						case *ast.InterfaceType:
							// An interface method is used only by a call.
							for _, m := range ty.Methods.List {
								for _, n := range m.Names {
									if n.IsExported() {
										s.candidates = append(s.candidates, info.Defs[n])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// addFields records a struct's fields; a tagged field is read by
// reflection.
func (s *surface) addFields(st *ast.StructType, info *types.Info) {
	for _, fld := range st.Fields.List {
		names := fld.Names
		if len(names) == 0 {
			continue // embedded: read through promotion
		}
		for _, n := range names {
			obj := info.Defs[n]
			if n.Name == "_" {
				continue
			}
			if fld.Tag != nil {
				tag := reflect.StructTag(strings.Trim(fld.Tag.Value, "`"))
				if _, ok := tag.Lookup("json"); ok {
					s.reads[obj]++
				} else if _, ok := tag.Lookup("stat"); ok {
					s.reads[obj]++
				}
			}
			s.candidates = append(s.candidates, obj)
		}
	}
}

func recvTypeName(d *ast.FuncDecl, info *types.Info) types.Object {
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// countUses classifies every reference in a package as a read or a
// write.
// A field is written as a composite-literal key, on the left of an
// assignment, or by ++/--; every other reference reads, and a selector
// that reaches a promoted member reads each embedded field on its path.
func (s *surface) countUses(files []*ast.File, info *types.Info) {
	written := map[*ast.Ident]bool{}
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := fieldIdent(lhs); id != nil {
					written[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id := fieldIdent(n.X); id != nil {
				written[id] = true
			}
		case *ast.CallExpr:
			// A struct converted to another type, or handed to a
			// parameter of type any (fmt, encoding/json, reflect), is
			// read whole.
			if tv := info.Types[n.Fun]; tv.IsType() {
				for _, a := range n.Args {
					s.readWhole(info.TypeOf(a))
				}
			} else if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				for i, a := range n.Args {
					if pt := paramType(sig, i); pt != nil && isAny(pt) {
						s.readWhole(info.TypeOf(a))
					}
				}
			}
		case *ast.BinaryExpr:
			// Comparing or hashing a struct value reads it whole; a
			// pointer compares without reading its target.
			if t := info.TypeOf(n.X); (n.Op == token.EQL || n.Op == token.NEQ) && isStruct(t) {
				s.readWhole(t)
			}
		case *ast.MapType:
			if t := info.TypeOf(n.Key); isStruct(t) {
				s.readWhole(t)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					st := derefStruct(t)
					if st == nil {
						break
					}
					fld := st.Field(i)
					s.reads[fld.Origin()]++
					t = fld.Type()
				}
			}
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, inspect)
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if s.within(obj, id.Pos()) {
			continue
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() && written[id] {
			s.writes[obj]++
		} else {
			s.reads[obj]++
		}
	}
}

// readWhole counts every field of a struct type (through pointers and
// nested struct values) as read.
func (s *surface) readWhole(t types.Type) {
	st := derefStruct(t)
	if st == nil || s.wholeRead[st] {
		return
	}
	s.wholeRead[st] = true
	for i := range st.NumFields() {
		fld := st.Field(i)
		s.reads[fld.Origin()]++
		if _, ok := fld.Type().Underlying().(*types.Struct); ok {
			s.readWhole(fld.Type())
		}
	}
}

func isStruct(t types.Type) bool {
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

func isAny(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.Empty()
}

// paramType is the type of a call's i-th argument's parameter.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	switch {
	case sig.Variadic() && i >= n-1:
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil // append([]byte, string...)
	case i < n:
		return sig.Params().At(i).Type()
	}
	return nil
}

// origin maps a member of an instantiated generic type to the member
// its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// fieldIdent is the field an assignment target x.f names, or nil.
func fieldIdent(e ast.Expr) *ast.Ident {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	return nil
}

func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// within reports whether pos lies in obj's own declaration.
func (s *surface) within(obj types.Object, pos token.Pos) bool {
	for _, n := range s.declOf[obj] {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// viaInterface reports whether a method is reachable through an
// interface its receiver type implements.
func (s *surface) viaInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false // an interface's own method is used only by a call
	}
	ptr := types.NewPointer(t)
	for _, it := range s.ifaces {
		for i := range it.NumMethods() {
			m := it.Method(i)
			if m.Name() == fn.Name() && s.ifaceUsed(m) && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// key names an object as surfaceAllowed does: package path, then the
// type for a method or field, then the name.
func (s *surface) key(obj types.Object) string {
	name := obj.Name()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			name = typeName(recv.Type()) + "." + name
		}
	case *types.Var:
		if o.IsField() {
			name = s.fieldOwner(o) + "." + name
		}
	}
	key := obj.Pkg().Path() + "." + name
	if surfaceAllowed[key] {
		s.allowedSeen[key] = true
	}
	return key
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return fmt.Sprint(t)
}

// fieldOwner names the package-level struct type declaring a field.
func (s *surface) fieldOwner(fld *types.Var) string {
	scope := fld.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if st.Field(i) == fld {
					return name
				}
			}
		}
	}
	return "?"
}
