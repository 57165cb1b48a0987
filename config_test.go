// ROADMAP item 4(j), held in tier-1 the way reach_test.go holds functions
// and surface_test.go holds flags, metric families and routes: every
// exported field of an exported struct named *Config, *Options or *Policy
// in non-test Go outside bench/ must be set by non-test code (a binary,
// bench/ or the library), or be deleted and its default made a constant. Writes inside the struct's own methods (its defaults) do not
// count.
package trout_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// configTestOnly is the allow-list: fields that only tests set, keyed
// "package.Struct.Field", each naming the test that sets it and why that
// test needs a value other than the default. An entry that non-test code
// sets after all, or that names no field, fails the test too: the list
// stays exact.
var configTestOnly = map[string]string{
	"trout.ControlPlaneConfig.CheckInterval":  "TestControlPlaneEndToEnd polls every 5 ms so a retrain cycle fits a test's time",
	"trout.ControlPlaneConfig.RollbackWindow": "TestControlPlaneEndToEnd ends probation after three joined outcomes instead of 32",
	"trout.ControlPlaneConfig.Trainer":        "TestControlPlaneEndToEnd injects fake candidates instead of a real retrain",
	"controlplane.Options.CheckInterval":      "TestControllerPromotesBetterCandidate polls every 2 ms so a cycle fits a test's time",
	"controlplane.Options.RollbackWindow":     "TestControllerRollsBackRegressedPromotion ends probation after two joined outcomes instead of 32",
	"trout.ServiceConfig.MaxBadStateRows":     "TestServiceTolerantStateUpload reaches the bad-row budget with two rows instead of 100",
	"main.CompareConfig.GBDTRounds":           "TestCompareFoldHasAllModels boosts 30 rounds instead of 100 to stay fast",
	"main.CompareConfig.ForestTrees":          "TestCompareFoldHasAllModels grows 30 trees instead of 100 to stay fast",
	"features.Options.RuntimeTrees":           "TestTrainAndClassifierBeatsChance grows a 20-tree runtime forest instead of 50 to stay fast",
	"core.Config.Workers":                     "TestDeterministicTraining pins two gradient workers so its bits do not depend on the host's CPU count",
	"obs.TracerConfig.MaxFileBytes":           "TestExporterRotation rotates the export file after 2 KiB instead of 64 MiB",
	"obs.TracerConfig.MaxFiles":               "TestExporterRotation keeps two files instead of four to see the oldest go",
	"obs.TracerConfig.QueueLen":               "TestExportQueueOverflow uses a one-slot queue to force the fault of a dropped trace",
	"livestate.StoreOptions.SegmentBytes":     "TestSegmentRotationAndRead rotates the WAL every 512 bytes instead of 4 MiB",
	"livestate.StoreOptions.RetainSegments":   "TestReadWALSubsumedAfterPrune keeps one sealed segment instead of four so a prune happens in a small test",
	"replication.FollowerConfig.Client":       "TestFollowerConvergesOverFaultyNetwork injects faults through a flaky transport",
	"replication.FollowerConfig.PollWait":     "TestFollowerCatchUpAndLiveTail long-polls for 200 ms instead of 25 s",
	"resilience.AdmissionConfig.QueueTimeout": "TestAdmissionQueueTimeout sheds a queued request after 30 ms instead of 1 s",
	"resilience.AdmissionConfig.RetryAfter":   "TestAdmissionRetryAfterRoundsUp needs a 1.5 s hint to see it rounded up",
	"resilience.Policy.InitialInterval":       "TestFollowerCatchUpAndLiveTail retries after 5 ms instead of 100 ms",
	"resilience.Policy.MaxInterval":           "TestFollowerCatchUpAndLiveTail caps the backoff at 50 ms instead of 10 s",
}

// configSuffix names the structs the census judges.
var configSuffix = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*(Config|Options|Policy)$|^(Config|Options|Policy)$`)

// configWrite is one write of a judged field: from is the judged field its
// value passes through (X: cfg.X), nil for any other value.
type configWrite struct{ from *types.Var }

// TestEveryConfigFieldIsSet collects the judged fields, then every write
// of them in non-test code: a composite-literal key (or position), an
// assignment, an increment, or taking the field's address (a flag or a
// decoder fills it). A function that fills a zero field of a config
// parameter (if cfg.X == 0 { cfg.X = d }) is applying a default, and that
// write does not count. A field is set when some write's value is not a
// pass-through, or passes through a set field; a field of a judged struct
// type (not a pointer to one) is also set when any of that struct's
// fields is. The allow-listed fields count as set for the pass-throughs
// that read them.
func TestEveryConfigFieldIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, module := loadModule(t)

	keys := map[*types.Var]string{}
	pos := map[*types.Var]string{}
	owned := map[*types.TypeName][]*types.Var{} // judged struct → its judged fields
	for path := range module {
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Assign.IsValid() || !configSuffix.MatchString(ts.Name.Name) {
						continue
					}
					tn := l.info.Defs[ts.Name].(*types.TypeName)
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if v := st.Field(i); v.Exported() {
							keys[v] = tn.Pkg().Name() + "." + tn.Name() + "." + v.Name()
							pos[v] = l.fset.Position(v.Pos()).String()
							owned[tn] = append(owned[tn], v)
						}
					}
				}
			}
		}
	}

	writes := map[*types.Var][]configWrite{}
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := l.info.Uses[sel.Sel].(*types.Var); ok && keys[v] != "" {
				return v
			}
		}
		return nil
	}
	write := func(v *types.Var, value ast.Expr) {
		if v == nil || keys[v] == "" {
			return
		}
		w := configWrite{}
		if value != nil {
			w.from = fieldOf(value)
		}
		writes[v] = append(writes[v], w)
	}
	for path, files := range l.files {
		for _, f := range files {
			if strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && module[path] {
					recv := l.info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if n, ok := recv.(*types.Named); ok && owned[n.Obj()] != nil {
						continue // the struct's own defaults
					}
				}
				// A parameter of a judged struct type is a config handed in;
				// filling its zero fields is the struct's defaults again.
				params := map[types.Object]bool{}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					for _, fld := range fd.Type.Params.List {
						for _, name := range fld.Names {
							typ := l.info.Defs[name].Type()
							if p, ok := typ.(*types.Pointer); ok {
								typ = p.Elem()
							}
							if n, ok := typ.(*types.Named); ok && owned[n.Obj()] != nil {
								params[l.info.Defs[name]] = true
							}
						}
					}
				}
				fills := map[ast.Expr]bool{} // assignment targets that fill a default
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.IfStmt:
						read := map[*types.Var]bool{}
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							if e, ok := c.(ast.Expr); ok && fieldOf(e) != nil {
								read[fieldOf(e)] = true
							}
							return true
						})
						ast.Inspect(n.Body, func(b ast.Node) bool {
							as, ok := b.(*ast.AssignStmt)
							if !ok {
								return true
							}
							for _, lhs := range as.Lhs {
								sel, ok := lhs.(*ast.SelectorExpr)
								if !ok || !read[fieldOf(sel)] {
									continue
								}
								if id, ok := sel.X.(*ast.Ident); ok && params[l.info.Uses[id]] {
									fills[lhs] = true
								}
							}
							return true
						})
					case *ast.CompositeLit:
						st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								v, _ := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
								write(v, kv.Value)
							} else {
								write(st.Field(i), el)
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if fills[lhs] {
								continue
							}
							var value ast.Expr
							if len(n.Lhs) == len(n.Rhs) && n.Tok == token.ASSIGN {
								value = n.Rhs[i]
							}
							write(fieldOf(lhs), value)
						}
					case *ast.IncDecStmt:
						write(fieldOf(n.X), nil)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(fieldOf(n.X), nil)
						}
					}
					return true
				})
			}
		}
	}

	// closure returns the fields set from seed by the writes' fixed point.
	closure := func(seed map[*types.Var]bool) map[*types.Var]bool {
		set := map[*types.Var]bool{}
		for v := range seed {
			set[v] = true
		}
		for changed := true; changed; {
			changed = false
			for v := range keys {
				if set[v] {
					continue
				}
				for _, w := range writes[v] {
					set[v] = set[v] || w.from == nil || set[w.from]
				}
				if n, ok := v.Type().(*types.Named); ok {
					for _, sub := range owned[n.Obj()] {
						set[v] = set[v] || set[sub]
					}
				}
				changed = changed || set[v]
			}
		}
		return set
	}
	byKey := map[string]*types.Var{}
	allowed := map[*types.Var]bool{}
	for v, k := range keys {
		byKey[k] = v
		if _, ok := configTestOnly[k]; ok {
			allowed[v] = true
		}
	}
	set, reached := closure(nil), closure(allowed)

	tests := testFuncNames(t)
	var unset []string
	for v, k := range keys {
		if !reached[v] {
			unset = append(unset, pos[v]+": "+k)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no non-test code sets %s: delete it and make its default a constant", u)
	}
	for k, why := range configTestOnly {
		v := byKey[k]
		switch name, _, _ := strings.Cut(why, " "); {
		case v == nil:
			t.Errorf("configTestOnly entry %s names no field: drop it", k)
		case set[v]:
			t.Errorf("configTestOnly entry %s is set by non-test code: drop it", k)
		case !tests[name]:
			t.Errorf("configTestOnly entry %s names %q, which is no test function", k, name)
		}
	}
}

// testFuncNames returns the name of every Test function in the module's
// _test.go files, bench/ included.
func testFuncNames(t *testing.T) map[string]bool {
	names := map[string]bool{}
	re := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range re.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
