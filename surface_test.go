// ROADMAP item 4(g), held in tier-1 the way reach_test.go holds
// functions: every trout_* metric family, troutd flag and HTTP route that
// non-test source outside bench/ registers must be named by a consumer,
// or be deleted. A consumer is a _test.go file (other than this one), any
// file under bench/, the verify skill, or an entry of README's
// "## Runbook" section; README's tables and prose do not count.
package trout_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed is the allow-list: surface items kept although no
// consumer names them, keyed "family trout_x", "flag -x" or "route /x",
// each with its reason. An entry that gains a consumer, or names an item
// that no longer exists, fails the test too: the list stays exact.
var surfaceAllowed = map[string]string{
	"route /debug/pprof/symbol": "go tool pprof resolves a remote profile's addresses through it on the -pprof listener",
}

// surfaceConstructors are the obs.Registry methods whose first argument
// names a metric family.
var surfaceConstructors = map[string]bool{
	"CounterVec": true, "GaugeVec": true, "Histogram": true, "HistogramVec": true,
	"GaugeFunc": true, "CounterFunc": true, "GaugeVecFunc": true, "CounterVecFunc": true,
	"InfoFunc": true,
}

// surfaceItem is one registered name and where it was registered.
type surfaceItem struct {
	kind, name, pos string
	histogram       bool // a family exposed with _bucket/_sum/_count series
}

func (it surfaceItem) key() string { return it.kind + " " + it.name }

// namedBy reports whether text names the item: the whole name, not a
// prefix of a longer family, flag or path.
func (it surfaceItem) namedBy(text string) bool {
	var re string
	switch it.kind {
	case "family":
		suffix := ""
		if it.histogram {
			suffix = "(_bucket|_sum|_count)?"
		}
		re = `(^|[^A-Za-z0-9_])` + regexp.QuoteMeta(it.name) + suffix + `([^A-Za-z0-9_]|$)`
	case "flag":
		re = `(^|[^A-Za-z0-9_-])--?` + regexp.QuoteMeta(it.name) + `([^A-Za-z0-9_-]|$)`
	default: // route: a subtree pattern ("/x/") also covers the paths below it
		re = regexp.QuoteMeta(it.name)
		if !strings.HasSuffix(it.name, "/") {
			re += `([^A-Za-z0-9_./-]|$)`
		}
	}
	return regexp.MustCompile(re).MatchString(text)
}

// surfaceItems parses the non-test Go outside bench/ and returns every
// registered family, troutd flag and route.
func surfaceItems(t *testing.T) []surfaceItem {
	fset := token.NewFileSet()
	var items []surfaceItem
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTroutd := filepath.ToSlash(p) == "cmd/troutd/main.go"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			it := surfaceItem{name: name, pos: fset.Position(lit.Pos()).String()}
			method := sel.Sel.Name
			switch {
			case surfaceConstructors[method] && strings.HasPrefix(name, "trout_"):
				it.kind, it.histogram = "family", strings.HasPrefix(method, "Histogram")
			case isTroutd && isIdent(sel.X, "flag"):
				it.kind = "flag"
			case method == "Handle" || method == "HandleFunc":
				it.kind = "route"
			default:
				return true
			}
			items = append(items, it)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// surfaceConsumers returns the text of every consumer: _test.go files
// other than this one, every file under bench/, the verify skill, and
// README's Runbook section.
func surfaceConsumers(t *testing.T) string {
	var b strings.Builder
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p == "bench/out" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir // bench/out holds a run's results, not the benchmark
			}
			return nil
		}
		if strings.HasPrefix(p, "bench/") || strings.HasSuffix(p, "_test.go") && p != "surface_test.go" {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Contains(src, []byte{0}) { // not a built binary, which embeds every name
				b.Write(src)
				b.WriteByte('\n')
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	skill, err := os.ReadFile(".claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(skill)
	b.WriteString(readmeSection(t, "## Runbook"))
	return b.String()
}

// readmeSection returns README.md from the heading line to the next
// level-2 heading.
func readmeSection(t *testing.T, heading string) string {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README.md has no %q section", heading)
	}
	if i := strings.Index(rest, "\n## "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestSurfaceConsumed fails on a registered family, troutd flag or route
// that no consumer names and surfaceAllowed does not list, and on an
// allow-list entry that is consumed or gone.
func TestSurfaceConsumed(t *testing.T) {
	consumers := surfaceConsumers(t)
	seen := map[string]bool{}
	for _, it := range surfaceItems(t) {
		if seen[it.key()] {
			continue // a route registered on both the leader and the follower branch
		}
		seen[it.key()] = true
		_, allowed := surfaceAllowed[it.key()]
		switch consumed := it.namedBy(consumers); {
		case consumed && allowed:
			t.Errorf("surfaceAllowed entry %q has a consumer: drop it", it.key())
		case !consumed && !allowed:
			t.Errorf("%s: %s is named by no test, bench/ file, verify-skill probe or README runbook entry: delete it, or give it a consumer", it.pos, it.key())
		}
	}
	for key, reason := range surfaceAllowed {
		if !seen[key] {
			t.Errorf("surfaceAllowed entry %q is no longer registered: drop it", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("surfaceAllowed entry %q has no reason", key)
		}
	}
}

// TestReadmeEndpointTable holds README's endpoint table to the routes the
// service registers on its address (cmd/troutd's -pprof listener is
// described on its own, beside the table).
func TestReadmeEndpointTable(t *testing.T) {
	registered := map[string]bool{}
	for _, it := range surfaceItems(t) {
		if it.kind == "route" && !strings.HasPrefix(filepath.ToSlash(it.pos), "cmd/") {
			registered[it.name] = true
		}
	}
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(src), "\n| Endpoint | Purpose |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no endpoint table")
	}
	listed := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "| `") {
			break
		}
		// "| `GET /predict?job=ID` | …": the path of the method + path cell.
		cell, _, _ := strings.Cut(strings.TrimPrefix(row, "| `"), "`")
		_, path, _ := strings.Cut(cell, " ")
		path, _, _ = strings.Cut(path, "?")
		listed[path] = true
	}
	var missing, extra []string
	for r := range registered {
		if !listed[r] {
			missing = append(missing, r)
		}
	}
	for r := range listed {
		if !registered[r] {
			extra = append(extra, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("README endpoint table: registered but not listed %v; listed but not registered %v", missing, extra)
	}
}
