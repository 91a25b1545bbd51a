package sketch_test

// TestInternalExportsHaveCallers keeps internal/ to what a program
// uses. Nothing outside this module can import internal/, so an
// exported function, method, type, constant or variable there that no
// non-test code names is kept alive only by its own unit test. The test
// type-checks every non-test package of the module, plus
// benchmark/layertrace (the benchmark's reach into internal/) and the
// benchmark package it imports, and fails on each such export of
// internal/ that nothing refers to, unless it is a method that
// satisfies an interface or is on keep. Struct fields are out of scope:
// encoding/json reads them without naming them.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// keep names the exports no program uses that stay, by what keeps
// them: an operation DESIGN §1.1–1.2 names for a substrate or family,
// an error bound ROADMAP item 3(a)'s Bound will read, or the atomic
// column ROADMAP item 6 deletes whole once the benchmark stops naming
// it. An entry is "pkg.Name" (a function, type, constant or variable)
// or "pkg.Type.Method", pkg relative to internal/.
var keep = keepList(map[string][]string{
	"DESIGN §1.1: tabulation hashing":             {"hashx.NewTabulation", "hashx.Tabulation.Hash"},
	"DESIGN §1.1: seeded hash builders":           {"hashx.Seeded"},
	"DESIGN §1.1: Box–Muller Gaussians":           {"randx.RNG.NormalPair"},
	"DESIGN §1.2: counting Bloom filter":          {"bloom.CountingFilter.Remove"},
	"DESIGN §1.2: Morris counter":                 {"counter.Morris.Increment"},
	"DESIGN §1.2: Boyer–Moore majority":           {"frequency.NewMajority", "frequency.Majority.Candidate"},
	"DESIGN §1.2: Count-Min inner product":        {"frequency.CountMin.InnerProduct"},
	"DESIGN §1.2: Count-Min dyadic range queries": {"frequency.DyadicCountMin.HeavyHitters"},
	"DESIGN §1.2: Euclidean (p-stable) LSH": {
		"lsh.NewEuclideanLSH", "lsh.EuclideanLSH.Hash", "lsh.EuclideanLSH.CollisionProbability",
	},
	"DESIGN §1.2: randomized response": {
		"privacy.NewRandomizedResponse", "privacy.RandomizedResponse.Perturb", "privacy.RandomizedResponse.Debias",
	},
	"DESIGN §1.2: Laplace/Gaussian mechanisms": {
		"privacy.NewLaplaceMechanism", "privacy.LaplaceMechanism.Release",
		"privacy.NewGaussianMechanism", "privacy.GaussianMechanism.Release",
	},
	"DESIGN §1.2: top-k recovery with error feedback": {"fetchsgd.GradSketch.TopK", "fetchsgd.GradSketch.SubtractSparse"},
	"ROADMAP item 3(a): the error bound a Bound reads": {
		"frequency.CountMin.ErrorBound", "frequency.CountSketch.ErrorBoundL2", "frequency.SFSketch.ErrorBound",
		"frequency.SpaceSaving.ErrorBound", "quantile.QDigest.ErrorBound", "cardinality.Theta.StandardError", "cardinality.HLL.StandardError",
		"counter.Morris.RelativeStandardError",
	},
	"ROADMAP item 6: the atomic column goes whole": {
		"concurrent.AtomicBlockedBloom.ContainsHash", "concurrent.AtomicCountMin.AddUint64", "concurrent.HLLHandle.AddUint64",
	},
})

func keepList(byReason map[string][]string) map[string]string {
	m := map[string]string{}
	for reason, keys := range byReason {
		for _, k := range keys {
			m[k] = reason
		}
	}
	return m
}

// srcPkg is one package of the scan: its non-test files, and the
// package they check to.
type srcPkg struct {
	files []*ast.File
	pkg   *types.Package
}

func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	fset := token.NewFileSet()
	pkgs := map[string]*srcPkg{}
	std := map[string]bool{}
	load := func(dir, path string) {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return
			}
			t.Fatal(err)
		}
		p := &srcPkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, "repro") && imp != "C" {
				std[imp] = true
			}
		}
		pkgs[path] = p
	}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch {
		case dir == "benchmark":
			load("benchmark/layertrace", "repro/benchmark/layertrace")
			load("benchmark/gen", "repro/benchmark/gen")
			return filepath.SkipDir
		case dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		}
		load(dir, filepath.ToSlash(filepath.Join("repro", dir)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The standard library comes from its compiled export data, located
	// with one go list call: type-checking it from source costs seconds.
	exports := map[string]string{}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := pkgs[path]; ok {
			return check(path)
		} else if strings.HasPrefix(path, "repro") {
			return nil, fmt.Errorf("no package %s", path)
		}
		return gc.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p.pkg == nil {
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(path, fset, p.files, info)
			if err != nil {
				return nil, err
			}
			p.pkg = pkg
		}
		return p.pkg, nil
	}
	for path := range pkgs {
		if _, err := check(path); err != nil {
			t.Fatal(err)
		}
	}

	// Every interface the program can see: named ones of the module and
	// of each standard package it reaches, and the anonymous ones the
	// module writes in assertions and constraints.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			scan(q)
		}
	}
	for _, p := range pkgs {
		scan(p.pkg)
	}
	for e, tv := range info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	// A use is any reference outside the object's own declaration (a
	// function's body, a type's or value's spec) and outside a method
	// receiver: a type that only its own methods name is never built. A
	// method that makes some type of the module satisfy an interface is
	// used.
	decls := map[types.Object]ast.Node{}
	inRecv := map[*ast.Ident]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[info.Defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inRecv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decls[info.Defs[n]] = s
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d := decls[obj]; !inRecv[id] && (d == nil || id.Pos() < d.Pos() || id.Pos() > d.End()) {
			used[obj] = true
		}
	}
	byName := map[string][]*types.Interface{}
	for _, it := range ifaces {
		byName[it.Method(0).Name()] = append(byName[it.Method(0).Name()], it)
	}
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(typ)
				for i := 0; i < ms.Len(); i++ {
					for _, it := range byName[ms.At(i).Obj().Name()] {
						if !implements(typ, it) {
							continue
						}
						for j := 0; j < it.NumMethods(); j++ {
							obj, _, _ := types.LookupFieldOrMethod(typ, true, p.pkg, it.Method(j).Name())
							if fn, ok := obj.(*types.Func); ok {
								used[fn.Origin()] = true
							}
						}
					}
				}
			}
		}
	}

	var dead []string
	declared := map[string]bool{}
	for path, p := range pkgs {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var names []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					names = []*ast.Ident{d.Name}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
				}
				for _, id := range names {
					if !id.IsExported() {
						continue
					}
					obj := info.Defs[id]
					key := rel + "." + id.Name
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							key = rel + "." + recvName(recv.Type()) + "." + id.Name
						}
					}
					declared[key] = true
					if _, kept := keep[key]; kept {
						if used[obj] {
							t.Errorf("%s has a user now: take it off keep", key)
						}
					} else if !used[obj] {
						dead = append(dead, fmt.Sprintf("%s (%s)", key, fset.Position(id.Pos())))
					}
				}
			}
		}
	}
	for key := range keep {
		if !declared[key] {
			t.Errorf("keep names %s, which is not declared", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but never used: %s", d)
	}
}

// implements reports whether typ has every method of it, or satisfies
// it as a constraint when it is one. An interface written in terms of a
// type parameter, such as interface{ Merge(S) error } in a generic
// function, is met by every method of its names, since each
// instantiation asks for a different signature.
func implements(typ types.Type, it *types.Interface) bool {
	if generic(it, map[types.Type]bool{}) {
		for i := 0; i < it.NumMethods(); i++ {
			if obj, _, _ := types.LookupFieldOrMethod(typ, true, it.Method(i).Pkg(), it.Method(i).Name()); obj == nil {
				return false
			}
		}
		return true
	}
	if it.IsMethodSet() {
		return types.Implements(typ, it)
	}
	return types.Satisfies(typ, it)
}

// generic reports whether t mentions a type parameter.
func generic(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return generic(t.Elem(), seen)
	case *types.Slice:
		return generic(t.Elem(), seen)
	case *types.Array:
		return generic(t.Elem(), seen)
	case *types.Map:
		return generic(t.Key(), seen) || generic(t.Elem(), seen)
	case *types.Chan:
		return generic(t.Elem(), seen)
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if generic(t.TypeArgs().At(i), seen) {
				return true
			}
		}
	case *types.Signature:
		return generic(t.Params(), seen) || generic(t.Results(), seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if generic(t.At(i).Type(), seen) {
				return true
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if generic(t.Method(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// recvName is the name of a receiver's type, without pointer or type
// arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
