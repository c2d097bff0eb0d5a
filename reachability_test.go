package permcell_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllow names the internal objects that no non-test root reaches but
// that stay, each with its reason. An entry the scan no longer reports is
// stale and fails the gate, so the list can only shrink.
var reachAllow = map[string]string{
	"internal/mdserial.Engine.Run":         "test driver: core's tests step the serial reference engine with it",
	"internal/mdserial.Engine.TotalEnergy": "oracle: core's and the facade's tests compare the parallel engines' energy against it",
	"internal/particle.Set.Temperature":    "oracle: the integrator, workload and facade identity tests check rescaling with it",
	"internal/space.Box.Displacement":      "oracle: the kernel and mdserial reference force loops and core's blob fixture take minimum-image separations with it",
	"internal/space.Box.Volume":            "oracle: the space and workload tests and mdserial's pressure oracle read densities with it",
	"internal/vec.V.Dist":                  "test helper: the kernel, core, integrator and potential tests compare vectors with it",
	"internal/vec.V.Norm":                  "oracle: the kernel, integrator and particle tests check lengths and momenta with it, core's blob fixture radii",
}

// TestReachability is the dead-code gate. It type-checks every package of
// the module (non-test files only) and fails on any internal/* object,
// exported or not, that no declaration outside internal/ reaches,
// transitively. Roots are every declaration of the facade, cmd/, examples/
// and bench/, init functions, `_` initializers, and the methods of internal
// types the facade re-exports by alias. A method of a live type is live
// when any interface declared in the loaded packages, std included, names
// it. It also holds the layering rule: the figures package builds on the
// runtime and never under it, and reaches the engines only through the
// facade.
func TestReachability(t *testing.T) {
	t.Parallel()
	pkgs, mod, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unreached(pkgs, mod, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, below := range []string{"", "/internal/core", "/internal/distrib", "/internal/serve"} {
			if p.ImportPath == mod+below && slices.Contains(p.Deps, mod+"/internal/experiments") {
				problems = append(problems, fmt.Sprintf("layering: %s imports internal/experiments; only cmd/ and tests may", p.ImportPath))
			}
		}
		if p.ImportPath != mod+"/internal/experiments" {
			continue
		}
		for _, engine := range []string{"/internal/core", "/internal/distrib", "/internal/workload"} {
			if slices.Contains(p.Imports, mod+engine) {
				problems = append(problems, fmt.Sprintf("layering: internal/experiments imports %s; the figures run through the facade", engine[1:]))
			}
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestReachabilitySelfTest runs the gate on a fixture module and checks
// each way it can fail or must not.
func TestReachabilitySelfTest(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"api.go": `package fixture

import "fixture/internal/lib"

type Shape = lib.Shape

func Area() float64 { return lib.Total([]lib.Namer{lib.Square{}}) }
`,
		"internal/lib/lib.go": `package lib

type Namer interface{ Name() string }

type Square struct{}

func (Square) Name() string { return "square" }

type Shape struct{}

func (Shape) Sides() int { return 4 }

func Total(ns []Namer) float64 { return float64(len(ns)) }

func Unused() int { return helper() }

func helper() int { return 1 }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, mod, err := loadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"internal/lib.Square.Name": "kept for the fixture", "internal/lib.Total": ""}
	problems, err := unreached(pkgs, mod, allow)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	for _, want := range []string{
		"unreached: internal/lib.Unused",
		"unreached: internal/lib.helper",
		"stale allowlist entry: internal/lib.Square.Name",
		"stale allowlist entry: internal/lib.Total",
		"allowlist entry without a reason: internal/lib.Total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gate missed %q; reported:\n%s", want, got)
		}
	}
	if len(problems) != 5 {
		t.Errorf("gate reported %d problems, want 5 (an interface method or an aliased type's method was condemned?):\n%s", len(problems), got)
	}
}

// goPackage is the part of `go list -json` the gate reads.
type goPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Imports    []string
	Deps       []string
	ImportMap  map[string]string
}

// loadModule lists the module rooted at dir and every package it depends
// on, dependencies first, and returns them with the module path.
func loadModule(dir string) ([]*goPackage, string, error) {
	modOut, err := goCmd(dir, "list", "-m")
	if err != nil {
		return nil, "", err
	}
	out, err := goCmd(dir, "list", "-deps", "-json", "./...")
	if err != nil {
		return nil, "", err
	}
	var pkgs []*goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(goPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, "", err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, strings.TrimSpace(string(modOut)), nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// unreached type-checks pkgs and returns one line per internal object no
// root reaches, per stale allowlist entry and per entry without a reason.
func unreached(pkgs []*goPackage, mod string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	ifaceMethods := map[string]bool{"Error": true} // the universe's error
	own := map[*types.Package]string{}             // module packages, path relative to the module
	var files [][]*ast.File
	var infos []*types.Info
	var owned []*types.Package

	for _, p := range pkgs {
		if p.ImportPath == "unsafe" {
			continue
		}
		var syntax []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			syntax = append(syntax, f)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		var firstErr error
		conf := types.Config{
			IgnoreFuncBodies: p.Standard,
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				if pkg := checked[path]; pkg != nil {
					return pkg, nil
				}
				return nil, fmt.Errorf("%s not loaded before %s", path, p.ImportPath)
			}),
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		pkg, _ := conf.Check(p.ImportPath, fset, syntax, info)
		checked[p.ImportPath] = pkg
		if p.Standard {
			continue // std only has to declare; its type errors are not ours
		}
		if firstErr != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, firstErr)
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, mod), "/")
		own[pkg] = rel
		files = append(files, syntax)
		infos = append(infos, info)
		owned = append(owned, pkg)
	}

	// Edges: every package-level object and method to what its declaration
	// refers to.
	edges := map[types.Object][]types.Object{}
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if o != nil && !live[o] {
			live[o] = true
			work = append(work, o)
		}
	}
	// node maps a used object to its graph node: the generic origin of a
	// module package's package-level object or concrete method, else nil.
	node := func(o types.Object) types.Object {
		switch v := o.(type) {
		case *types.Func:
			o = v.Origin()
			if recv := v.Signature().Recv(); recv != nil {
				if _, ok := own[o.Pkg()]; !ok || types.IsInterface(recv.Type()) {
					return nil
				}
				return o
			}
		case *types.Var:
			o = v.Origin()
		case *types.Const, *types.TypeName:
		default:
			return nil
		}
		if _, ok := own[o.Pkg()]; !ok || o.Parent() != o.Pkg().Scope() {
			return nil
		}
		return o
	}
	var aliased []*types.TypeName
	for i, pkg := range owned {
		info := infos[i]
		root := !strings.HasPrefix(own[pkg]+"/", "internal/")
		refs := func(from []types.Object, decl ast.Node) {
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				to := node(info.Uses[id])
				if to == nil {
					return true
				}
				for _, f := range from {
					if f == nil {
						mark(to)
					} else {
						edges[f] = append(edges[f], to)
					}
				}
				return true
			})
		}
		for _, f := range files[i] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					if root || (d.Recv == nil && d.Name.Name == "init") {
						mark(obj)
					}
					refs([]types.Object{obj}, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							if root {
								mark(obj)
								if s.Assign.IsValid() {
									if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
										aliased = append(aliased, named.Origin().Obj())
									}
								}
							}
							refs([]types.Object{obj}, s)
						case *ast.ValueSpec:
							var from []types.Object
							for _, name := range s.Names {
								obj := info.Defs[name]
								if root || name.Name == "_" {
									obj = nil // a root: what it refers to is live
								}
								from = append(from, obj)
							}
							refs(from, s)
						}
					}
				}
			}
		}
	}
	for _, tn := range aliased {
		named := tn.Type().(*types.Named)
		for m := range named.Methods() {
			if m.Exported() {
				mark(node(m))
			}
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range edges[o] {
			mark(to)
		}
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					if ifaceMethods[m.Name()] {
						mark(node(m))
					}
				}
			}
		}
	}

	// Report every internal object the walk did not reach.
	var problems []string
	dead := map[string]bool{}
	report := func(name string) {
		if _, ok := allow[name]; ok {
			dead[name] = true
			return
		}
		problems = append(problems, "unreached: "+name)
	}
	for _, pkg := range owned {
		rel := own[pkg]
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name != "_" && !live[obj] {
				report(rel + "." + name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					if !live[m] {
						report(rel + "." + name + "." + m.Name())
					}
				}
			}
		}
	}
	for name, reason := range allow {
		if !dead[name] {
			problems = append(problems, "stale allowlist entry: "+name+" (reached now, or gone)")
		}
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, "allowlist entry without a reason: "+name)
		}
	}
	slices.Sort(problems)
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
