package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testHelperExports are exported functions and methods under internal/
// that no non-test file calls but that another package's tests use as a
// helper, each with the tests that need it.
var testHelperExports = map[string]string{
	"relation.SetParallelThreshold": "relation, program, engine, service and root tests force the parallel kernel paths on small inputs",
	"relation.MustDatabase":         "tests across the module build fixture databases in one expression",
	"relation.SchemaOfRunes":        "tests across the module spell a schema of one-letter attributes as one string, as the paper does",
	"jointree.AllTrees":             "optimizer and core tests check the exact searches against brute force over every tree",
	"obs.CheckNested":               "engine, service and wcoj tests check that a query's span tree nests",
	"failpoint.Active":              "engine tests check that no injected fault outlives its case",
	"failpoint.Reset":               "engine and store tests clear every injected fault after a case",
}

// stdlibMethodNames are exported method names that satisfy a standard
// library interface and are called through it, never by name.
var stdlibMethodNames = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

type goFile struct {
	path string // slash-separated, relative to the repository root
	ast  *ast.File
}

// dir is the file's package directory, which names its package here:
// "internal/program" for the package imported as "repro/internal/program".
func (f goFile) dir() string { return path.Dir(f.path) }

// TestEveryInternalExportHasACaller fails on an exported function or method
// under internal/ that no non-test Go file of the repository uses outside
// the function's own declaration: a recursive call is not a caller. bench/,
// cmd/ and examples/ count as callers; tests do not.
//
// A package-level function is resolved by its package: only pkg.Name
// through an import of that package (aliases resolved), or a bare Name
// inside its own package, uses it, so a call of one package's Parse keeps
// no other package's Parse alive. A method is matched by name alone: telling
// x.Parse's receiver type apart needs type-checking, and type-checking the
// module with go/types' source importer takes about ten seconds, too slow
// for this test. A method whose name an interface of the repository
// declares is exempt, as are stdlibMethodNames and testHelperExports.
func TestEveryInternalExportHasACaller(t *testing.T) {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/out is the served benchmark's build cache.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("bench", "out")) {
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
		files = append(files, goFile{path: filepath.ToSlash(path), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgName := map[string]string{} // package directory → package name
	for _, f := range files {
		pkgName[f.dir()] = f.ast.Name.Name
	}
	// funcUses holds "dir.Name" for each package-level use; names holds every
	// identifier, for methods.
	funcUses := map[string]bool{}
	names := map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local package name → directory
		for _, imp := range f.ast.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ip, "repro/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		for _, d := range f.ast.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd.Name.Name
			}
			selected := map[*ast.Ident]bool{} // x.Name's Name: not a bare use
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcUses[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if n.Name == self {
						break
					}
					names[n.Name] = true
					if !selected[n] {
						funcUses[f.dir()+"."+n.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var dead []string
	helpers := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil && funcUses[f.dir()+"."+name] ||
				fd.Recv != nil && (names[name] || ifaceMethods[name] || stdlibMethodNames[name]) {
				continue
			}
			if _, ok := testHelperExports[f.ast.Name.Name+"."+name]; ok {
				helpers[f.ast.Name.Name+"."+name] = true
				continue
			}
			dead = append(dead, f.path+": "+f.ast.Name.Name+"."+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test file calls %s", d)
	}
	for name := range testHelperExports {
		if !helpers[name] {
			t.Errorf("testHelperExports lists %s, which is gone or has a non-test caller", name)
		}
	}
}
