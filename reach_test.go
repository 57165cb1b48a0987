// PR 27's rule, held in tier-1: a non-test function outside bench/ stays
// only if a binary or the benchmark reaches it. This is that PR's scratch
// reachability pass rebuilt on go/parser + go/types, so a deletion that
// strands a helper fails `go test ./...` instead of waiting for the next
// sweep.
package trout_test

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

// reachOracles is the allow-list: what PR 27 kept although no binary
// reaches it, because tests in several packages use it as their oracle or
// their window into a running service. Names are types.Func.FullName; a
// trailing "." exempts a whole package. An entry that is reachable after
// all, or no longer exists, fails the test too: the list stays exact.
var reachOracles = []string{
	"repro/internal/replication/faulttest.",
	"(*repro/internal/livestate.Engine).Fingerprint",
	"(*repro.Service).FallbackCounters",
	"(*repro.Service).Follower",
	"(*repro.Service).Registry",
	"(*repro.Service).ReplicationLeader",
	"(*repro.Service).Telemetry",
	"(*repro.Service).Tracer",
	"(*repro.Service).Tracker",
	"(*repro.ControlPlane).Controller",
	"(*repro.ControlPlane).Registry",
	"(*repro/internal/trace.Job).Validate",
	"(*repro/internal/trace.Trace).Validate",
	"(*repro/internal/obs.Tracer).Flush",
	"(*repro/internal/obs.exporter).flush",
	"(repro/internal/slurmsim.Stats).UtilizationCPU",
}

// reachStdlibCalls are the methods the standard library calls on this
// module's values with no identifier here to follow: container/heap's
// interface, slog.LogValuer, and the Unwrap errors.Is/As and
// http.ResponseController find by asserting an unnamed interface.
var reachStdlibCalls = []string{"Len", "Less", "Swap", "Push", "Pop", "LogValue", "Unwrap"}

// reachLoader type-checks the module's packages from source (standard
// library packages come from the toolchain's export data) and keeps what
// the graph needs of each.
type reachLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	return l.load(path, filepath.Join(".", strings.TrimPrefix(path, "repro")), false)
}

// load parses and type-checks one directory's package; withTests adds its
// in-package _test.go files (bench/ only: they reference the module too).
func (l *reachLoader) load(path, dir string, withTests bool) (*types.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || (!withTests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// TestEveryFunctionReachable builds the call graph over every identifier
// use that resolves to a function and walks it from the roots: each main
// and init under cmd/ and examples/, and every module declaration bench/
// names. A call through an interface method reaches every module method
// of that name, as do reachStdlibCalls; a package's variable initializers
// and init functions run as soon as anything in it does.
func TestEveryFunctionReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := &reachLoader{
		fset: token.NewFileSet(), std: importer.Default(),
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p == "bench" || strings.HasPrefix(d.Name(), ".") && p != "." || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(p, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil // no non-test Go here
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("repro", p)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	module := map[string]bool{} // the packages whose functions are judged
	for path := range l.pkgs {
		module[path] = true
	}
	if _, err := l.load("repro/bench", "bench", true); err != nil {
		t.Fatal(err)
	}

	// Nodes are function objects, "method <name>" for a call through an
	// interface, and a package's import path for its initialization.
	edges := map[any][]any{}
	byName := map[string][]*types.Func{} // module methods, by method name
	var funcs []*types.Func
	use := func(from any, id *ast.Ident) {
		obj, ok := l.info.Uses[id].(*types.Func)
		if !ok {
			return
		}
		obj = obj.Origin()
		if sig := obj.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			edges[from] = append(edges[from], "method "+obj.Name())
		} else if obj.Pkg() != nil && module[obj.Pkg().Path()] {
			edges[from] = append(edges[from], obj)
		}
	}
	var roots []any
	for path, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				var from any = path // package-level declarations initialize the package
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn := l.info.Defs[fd.Name].(*types.Func)
					switch {
					case path == "repro/bench":
						from = "bench"
					case fd.Recv == nil && fn.Name() == "init":
						// runs with the package
					default:
						from = fn
						funcs = append(funcs, fn)
						edges[fn] = append(edges[fn], path)
						if fd.Recv != nil {
							byName[fn.Name()] = append(byName[fn.Name()], fn)
						}
					}
					if fd.Recv == nil && fn.Name() == "main" && fn.Pkg().Name() == "main" {
						roots = append(roots, fn)
					}
				} else if path == "repro/bench" {
					from = "bench"
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						use(from, id)
					}
					return true
				})
			}
		}
	}
	roots = append(roots, "bench")
	for _, name := range reachStdlibCalls {
		roots = append(roots, "method "+name)
	}

	reached := map[any]bool{}
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[n] {
			continue
		}
		reached[n] = true
		roots = append(roots, edges[n]...)
		if name, ok := n.(string); ok {
			for _, fn := range byName[strings.TrimPrefix(name, "method ")] {
				roots = append(roots, fn)
			}
		}
	}

	allowed := func(fn *types.Func) string {
		for _, o := range reachOracles {
			if o == fn.FullName() || strings.HasSuffix(o, ".") && fn.Pkg().Path()+"." == o {
				return o
			}
		}
		return ""
	}
	oracleUsed := map[string]bool{}
	var stranded []string
	for _, fn := range funcs {
		if o := allowed(fn); o != "" {
			if !reached[fn] || strings.HasSuffix(o, ".") {
				oracleUsed[o] = true
			}
			continue
		}
		if !reached[fn] {
			stranded = append(stranded, l.fset.Position(fn.Pos()).String()+": "+fn.FullName())
		}
	}
	sort.Strings(stranded)
	for _, s := range stranded {
		t.Errorf("no binary or bench/ declaration reaches %s", s)
	}
	for _, o := range reachOracles {
		if !oracleUsed[o] {
			t.Errorf("reachOracles entry %s is reachable or gone: drop it", o)
		}
	}
}
