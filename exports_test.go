package tpset_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// calleeAllowed names the exported internal functions that may have no
// caller outside tests: test-support API that exists for the tests that
// call it. A whole package is named by its directory, one function by
// dir.Func; a function entry whose function gains a caller is stale and
// fails the test. faultfs's injection API needs no entry today:
// cmd/tpserve calls NewInjector, and MemFS.CrashView calls NewMem.
var calleeAllowed = map[string]bool{
	"internal/ref/reftest": true, // the oracle harnesses' generator and checks
}

// TestInternalExportsHaveCallers fails on an exported top-level function
// of a package under internal/ that no non-test Go file calls or takes
// the value of — the tpset root, cmd/, examples/, another internal
// package, its own package, and the benchmark/ module all count, a
// function's own body does not — unless calleeAllowed names it. An
// export only tests reach is API nobody runs: it is kept correct for no
// one and read as if it mattered. Uses are found syntactically, per
// file: a selector pkg.Name resolved through the file's imports, and a
// bare Name inside the declaring package.
func TestInternalExportsHaveCallers(t *testing.T) {
	const module = "github.com/tpset/tpset/"
	type goFile struct {
		dir string
		f   *ast.File
	}
	var files []goFile
	pkgName := map[string]string{} // dir → package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, goFile{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Pos{} // dir.Func → declaration
	used := map[string]bool{}
	for _, gf := range files {
		imports := map[string]string{} // name in this file → dir
		for _, imp := range gf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, module) {
				continue
			}
			dir := strings.TrimPrefix(path, module)
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		self := "" // the top-level function being walked: its own calls do not count
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method, not a package-level name
				return false
			case *ast.Ident:
				if n.Name != self {
					used[gf.dir+"."+n.Name] = true
				}
			}
			return true
		}
		for _, decl := range gf.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(decl, visit)
				continue
			}
			self = ""
			if fn.Recv == nil {
				self = fn.Name.Name
				if fn.Name.IsExported() && strings.HasPrefix(gf.dir, "internal/") {
					declared[gf.dir+"."+fn.Name.Name] = fn.Pos()
				}
			} else {
				ast.Inspect(fn.Recv, visit)
			}
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
		}
	}
	if len(declared) == 0 || !used["internal/core.Apply"] {
		t.Fatal("no internal export or no use of core.Apply found; the extraction is broken")
	}

	var uncalled []string
	for name, pos := range declared {
		dir, _, _ := strings.Cut(name, ".")
		if !used[name] && !calleeAllowed[name] && !calleeAllowed[dir] {
			uncalled = append(uncalled, fset.Position(pos).String()+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but only tests call it: delete it, unexport it, or name it in calleeAllowed", u)
	}
	for name := range calleeAllowed {
		_, fn := declared[name]
		switch {
		case !fn && pkgName[name] == "":
			t.Errorf("calleeAllowed names %s, which is not an exported internal function or package", name)
		case fn && used[name]:
			t.Errorf("calleeAllowed names %s, which has a caller outside tests: drop the entry", name)
		}
	}
}
