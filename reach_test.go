package autopilot

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
	"reflect"
	"strings"
	"sync"
	"testing"
)

// unreachedKeepers lists the declarations in internal/ that no program
// reaches but that stay because tests use them, keyed "pkg.Name" or
// "pkg.Type.Method" with pkg relative to autopilot/internal/. The scan
// treats each as one more root, so what a keeper needs stays with it.
var unreachedKeepers = map[string]string{
	"systolic.TraceLayer":           "cycle-level oracle the systolic tests check the analytical model against",
	"power.Model.SoC":               "reference SoC power the hw and power tests check estimates against",
	"catalog.ComputeBoard.Validate": "checks every built-in compute board in the catalog tests",
	"f1.Model.Validate":             "checks the default F-1 model in the f1 tests",
	"airlearning.ExpertPolicy":      "shortest-path teacher the airlearning and nn tests and the root benchmarks fly",
	"dse.Space.Sample":              "random design points the dse and tuning tests evaluate",
	"dse.Space.Enumerate":           "reference oracle: TestExhaustiveConfirmsBOFindings checks BO's pick against the exhaustive sweep",
	"tensor.FromSlice":              "literal tensors for the tensor and nn tests",
	"tensor.Equal":                  "tolerance comparison for the tensor, nn and rl tests",
	"tensor.Tensor.Norm2":           "gradient norms in the tensor, nn and policy tests",
	"tensor.RNG.Uniform":            "uniform inputs for the tensor and nn tests",
	"tensor.RNG.NormFloat64":        "Gaussian noise for the gp tests and the root benchmarks",
	"obs.Registry.Gauge":            "gauge API for the planned busy-fraction gauge, pinned by the obs tests",
	"obs.Observer.Gauge":            "gauge API for the planned busy-fraction gauge, pinned by the obs tests",
	"obs.Gauge.Set":                 "gauge API for the planned busy-fraction gauge, pinned by the obs tests",
	"obs.Gauge.Add":                 "gauge API for the planned busy-fraction gauge, pinned by the obs tests",
}

// TestNoUnreachableDeclarations fails on every non-test declaration in
// internal/ that no program reaches and unreachedKeepers does not name.
//
// The roots are the main and init functions of every main package; they
// all live under cmd/, examples/ and perfbench/. A declaration is reached
// when a reached declaration refers to it. A method is reached when its
// type is reached and it is either referred to by reached code or named by
// an interface anywhere in the program whose method names the type has
// too, so methods that fmt, errors or net/http call dynamically count.
func TestNoUnreachableDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog, err := loadBoth()
	if err != nil {
		t.Fatal(err)
	}
	var roots []types.Object
	for _, p := range prog.pkgs {
		if p.Name() != "main" {
			continue
		}
		for _, name := range []string{"main", "init"} {
			if obj := p.Scope().Lookup(name); obj != nil {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		t.Fatal("no program roots found")
	}
	fromPrograms := prog.reach(roots)

	declared := map[string]bool{}
	for _, d := range prog.internal {
		declared[d.key] = true
		if _, ok := unreachedKeepers[d.key]; !ok {
			continue
		}
		if fromPrograms[d.obj] {
			t.Errorf("%s: %s is reached by a program; drop it from unreachedKeepers", d.pos, d.key)
		}
		roots = append(roots, d.obj)
	}
	for key := range unreachedKeepers {
		if !declared[key] {
			t.Errorf("unreachedKeepers names %s, which is not declared in internal/", key)
		}
	}
	reached := prog.reach(roots)
	for _, d := range prog.internal {
		if !reached[d.obj] {
			t.Errorf("%s: %s is reached by no program; delete it or add it to unreachedKeepers with a reason", d.pos, d.key)
		}
	}
}

// unsetKeepers lists the exported fields in internal/ that no non-test code
// writes but that stay, keyed "pkg.Type.Field" with pkg relative to
// autopilot/internal/.
var unsetKeepers = map[string]string{
	"dse.Request.Injector":         "chaos seam the dse and core tests inject estimate faults through",
	"train.Config.Injector":        "chaos seam the train tests inject training-job faults through",
	"fault.Injector.PanicRate":     "chaos seam: the rate at which the fault tests' injectors panic",
	"fault.Injector.ErrorRate":     "chaos seam: the rate at which the fault tests' injectors return errors",
	"fault.Injector.NaNRate":       "chaos seam: the rate at which the fault tests' injectors corrupt results to NaN",
	"airlearning.ExpertPolicy.Env": "the arena of the shortest-path teacher, which only tests fly (see unreachedKeepers)",
}

// TestNoUnsetFields fails on every exported field of a struct type declared
// in internal/ that no non-test code in either module writes, unless it
// carries a json tag (wire types are filled by decoding) or unsetKeepers
// names it. A write is a keyed composite-literal element, the target of an
// assignment, op-assignment or inc/dec, or taking the field's address.
func TestNoUnsetFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog, err := loadBoth()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range prog.fields {
		declared[f.key] = true
		_, keep := unsetKeepers[f.key]
		switch {
		case keep && prog.written[f.obj]:
			t.Errorf("%s: %s is written by non-test code; drop it from unsetKeepers", f.pos, f.key)
		case !keep && !prog.written[f.obj]:
			t.Errorf("%s: %s is set by no program; delete it or add it to unsetKeepers with a reason", f.pos, f.key)
		}
	}
	for key := range unsetKeepers {
		if !declared[key] {
			t.Errorf("unsetKeepers names %s, which is not an exported untagged field in internal/", key)
		}
	}
}

// loadBoth loads the root module and perfbench once for both guards.
var loadBoth = sync.OnceValues(func() (*program, error) { return loadProgram(".", "perfbench") })

// program is the type-checked non-test source of both modules, with the
// references each top-level declaration makes.
type program struct {
	pkgs     []*types.Package
	refs     map[types.Object][]types.Object // declaration -> what it refers to
	named    []*types.Named                  // every named non-interface type
	ifaces   [][]string                      // method names of every interface, std included
	internal []decl                          // declarations in autopilot/internal/...
	fields   []decl                          // exported untagged struct fields in autopilot/internal/...
	written  map[types.Object]bool           // fields non-test code writes
}

type decl struct {
	obj types.Object
	key string
	pos token.Position
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// loadProgram lists every package of the modules rooted at dirs, with their
// dependencies, type-checks the non-standard ones from source against the
// standard library's export data, and parses the standard library's source
// for the method names of its interfaces.
func loadProgram(dirs ...string) (*program, error) {
	var listed []listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,Export", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	// The universe's error interface is the one no source file declares.
	prog := &program{refs: map[types.Object][]types.Object{}, ifaces: [][]string{{"Error"}}, written: map[types.Object]bool{}}
	// go list -deps prints every package after its dependencies.
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					var names []string
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							names = append(names, id.Name)
						}
					}
					if len(names) > 0 {
						prog.ifaces = append(prog.ifaces, names)
					}
				}
				return true
			})
		}
		if p.Standard {
			continue
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		prog.pkgs = append(prog.pkgs, pkg)
		for _, f := range files {
			prog.addFile(fset, pkg, f, info)
			prog.addWrites(f, info)
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile records the references of each top-level declaration in f.
func (prog *program) addFile(fset *token.FileSet, pkg *types.Package, f *ast.File, info *types.Info) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if use, ok := n.(*ast.Ident); ok {
				if dep := origin(info.Uses[use]); dep != nil && isDecl(dep) {
					prog.refs[obj] = append(prog.refs[obj], dep)
				}
			}
			return true
		})
		if tn, ok := obj.(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				prog.named = append(prog.named, n)
			}
		}
		rel, ok := strings.CutPrefix(pkg.Path(), "autopilot/internal/")
		if !ok || obj.Name() == "init" {
			return
		}
		key := rel + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := receiver(fn); recv != nil {
				key = rel + "." + recv.Obj().Name() + "." + fn.Name()
			}
		}
		prog.internal = append(prog.internal, decl{obj, key, fset.Position(id.Pos())})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			var prev types.Object
			enum := d.Tok == token.CONST && usesIota(d)
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
					prog.addFields(fset, pkg, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
						// An iota constant keeps the ones before it in its
						// group: deleting one would shift every value after it.
						if obj := info.Defs[id]; enum && obj != nil && prev != nil {
							prog.refs[obj] = append(prog.refs[obj], prev)
						}
						prev = info.Defs[id]
					}
				}
			}
		}
	}
}

// addFields records the exported fields of obj, a type declared in
// autopilot/internal/..., that carry no json tag.
func (prog *program) addFields(fset *token.FileSet, pkg *types.Package, obj types.Object) {
	rel, ok := strings.CutPrefix(pkg.Path(), "autopilot/internal/")
	if !ok || obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !tagged {
			prog.fields = append(prog.fields, decl{f, rel + "." + obj.Name() + "." + f.Name(), fset.Position(f.Pos())})
		}
	}
}

// addWrites records the struct fields f writes: as a keyed composite-literal
// element, as the target of an assignment, op-assignment or inc/dec, or by
// taking the field's address. Writing an element of a field writes the field.
func (prog *program) addWrites(f *ast.File, info *types.Info) {
	write := func(x ast.Expr) {
		for {
			switch e := x.(type) {
			case *ast.ParenExpr:
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.SelectorExpr:
				if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					prog.written[origin(sel.Obj())] = true
				}
				return
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					prog.written[origin(v)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		}
		return true
	})
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// reach returns every declaration reached from roots.
func (prog *program) reach(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	referred := map[types.Object]bool{} // methods reached code refers to
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			for _, dep := range prog.refs[obj] {
				if fn, ok := dep.(*types.Func); ok && receiver(fn) != nil {
					referred[dep] = true
				} else if !reached[dep] {
					queue = append(queue, dep)
				}
			}
		}
		for _, n := range prog.named {
			if !reached[n.Obj()] {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(n))
			has := map[string]bool{}
			for i := 0; i < mset.Len(); i++ {
				has[mset.At(i).Obj().Name()] = true
			}
			dispatched := map[string]bool{}
			for _, names := range prog.ifaces {
				if all(names, has) {
					for _, name := range names {
						dispatched[name] = true
					}
				}
			}
			for i := 0; i < mset.Len(); i++ {
				m := origin(mset.At(i).Obj())
				if !reached[m] && (referred[m] || dispatched[m.Name()]) {
					queue = append(queue, m)
				}
			}
		}
	}
	return reached
}

func all(names []string, has map[string]bool) bool {
	for _, name := range names {
		if !has[name] {
			return false
		}
	}
	return true
}

// isDecl reports whether obj is a package-level declaration or a method of
// a non-standard package.
func isDecl(obj types.Object) bool {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "autopilot") {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && receiver(fn) != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// receiver returns the named type a concrete method is declared on, or nil
// for a function or an interface method.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || types.IsInterface(n) {
		return nil
	}
	return n.Origin()
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
