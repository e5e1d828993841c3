package mosaic_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names exported functions and methods in internal/ that
// may lack a caller in non-test code, each with the reason. A key is a
// package path (every export of it) or "pkgpath.Func" / "pkgpath.Type.Method".
var callerAllowlist = map[string]string{
	"mosaic/internal/faulty": "test-support package: fault-injecting transports and listeners for tests",
	"Unwrap":                 "called through errors.Is / errors.As, which name no interface type",
}

// TestInternalExportsHaveProductionCallers type-checks every non-test file of
// the root module, of benchmark/ and of examples/, and fails on any exported
// function or method declared in internal/ that nothing but a _test.go file
// refers to. A method counts as called when its type implements an interface
// that has a method of that name: it is then reachable through the interface
// (expr.Expr, nn.Layer, error, fmt.Stringer, sort.Interface, …). An oracle a
// test compares against belongs in that package's _test.go files.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	l := &loader{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		dirs:   map[string]string{},
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}},
		ifaces: map[*types.Interface]bool{},
	}
	l.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, root := range []struct{ dir, path string }{{".", "mosaic"}, {"benchmark", "mosaic/benchmark"}} {
		err := filepath.WalkDir(root.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != root.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				(root.dir == "." && name == "benchmark")) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root.dir, p)
			imp := root.path
			if rel != "." {
				imp += "/" + filepath.ToSlash(rel)
			}
			l.dirs[imp] = p
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for imp := range l.dirs {
		paths = append(paths, imp)
	}
	sort.Strings(paths)
	for _, imp := range paths {
		if _, err := l.Import(imp); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var unused []string
	for _, imp := range paths {
		pkg := l.pkgs[imp]
		if pkg == nil || !strings.HasPrefix(imp, "mosaic/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					unused = append(unused, imp+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !l.implementsSome(named, m.Name()) {
						unused = append(unused, imp+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	var fail []string
	for _, key := range unused {
		if !allowed(key) {
			fail = append(fail, key)
		}
	}
	if len(fail) > 0 {
		t.Errorf("%d exported functions in internal/ have no caller outside _test.go files; delete them, or move a test oracle into its package's _test.go files:\n\t%s",
			len(fail), strings.Join(fail, "\n\t"))
	}
}

func allowed(key string) bool {
	if _, ok := callerAllowlist[key[strings.LastIndex(key, ".")+1:]]; ok {
		return true
	}
	for k := range callerAllowlist {
		if key == k || strings.HasPrefix(key, k+".") {
			return true
		}
	}
	return false
}

// loader type-checks the repository's packages from source, non-test files
// only, and every standard-library package from export data.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string // import path → directory, for packages in the repository
	pkgs   map[string]*types.Package
	info   *types.Info
	ifaces map[*types.Interface]bool // every method-set interface in a loaded package's scope
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		pkg, err := l.std.Import(path)
		if err == nil {
			l.addInterfaces(pkg)
			for _, imp := range pkg.Imports() {
				l.addInterfaces(imp)
			}
		}
		l.pkgs[path] = pkg
		return pkg, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.addInterfaces(pkg)
	return pkg, nil
}

func (l *loader) addInterfaces(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			l.ifaces[it] = true
		}
	}
}

// implementsSome reports whether named or a pointer to it implements an
// interface that declares a method called method.
func (l *loader) implementsSome(named *types.Named, method string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for it := range l.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
