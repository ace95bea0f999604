package server

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/sqlexec"
)

// family is one /metrics family a stat tag declares.
type family struct {
	name, kind, where string
	// series: rendered once per endpoint or shard of a view, not once
	// per view.
	series bool
}

// taggedStats are the statistics structs every field of which carries a
// stat tag. The other structs declaredFamilies reaches (ViewStats and
// the pure containers under it) tag only the fields /metrics exports.
var taggedStats = []reflect.Type{
	reflect.TypeFor[ApplyStats](),
	reflect.TypeFor[QueueStats](),
	reflect.TypeFor[EndpointLatency](),
	reflect.TypeFor[plan.CacheStats](),
	reflect.TypeFor[plan.WriteStats](),
	reflect.TypeFor[sqlexec.ExecStats](),
	reflect.TypeFor[relational.DBStats](),
	reflect.TypeFor[relational.VersionStats](),
	reflect.TypeFor[relational.ShardStat](),
}

// declaredFamilies walks what /metrics renders — ViewStats, the untagged
// structs under it and the element types of its series slices — fails
// on a malformed or missing stat tag, and returns the families the tags
// declare: an engine family flagged "shard" once more under
// ufilterd_shard_, and a ShardStat's only there.
func declaredFamilies(t *testing.T) []family {
	t.Helper()
	var out []family
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, series bool)
	walk = func(typ reflect.Type, series bool) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous || !f.IsExported() {
				continue // an embedded struct's fields are checked with their own type
			}
			where := typ.Name() + "." + f.Name
			n := strings.Count(string(f.Tag), `stat:"`)
			switch {
			case n > 1 || n == 0 && slices.Contains(taggedStats, typ):
				t.Errorf("%s has %d stat tags, want exactly 1", where, n)
				continue
			case n == 0 && f.Type.Kind() == reflect.Struct:
				walk(f.Type, series)
				continue
			case n == 0 && f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
				walk(f.Type.Elem(), true)
				continue
			case n == 0:
				continue // served by /stats only
			}
			parts := strings.Split(f.Tag.Get("stat"), ",")
			name, kind, flags := parts[0], parts[1], parts[2:]
			switch {
			case kind == "label":
				if name == "" || len(flags) != 0 {
					t.Errorf("%s: a label needs a name and nothing else: %q", where, f.Tag.Get("stat"))
				}
				continue
			case kind != "counter" && kind != "gauge" && kind != "histogram":
				t.Errorf("%s: kind %q, want counter, gauge, histogram or label", where, kind)
			case len(flags) == 0 || flags[0] != "sum" && flags[0] != "max":
				t.Errorf("%s: fold %v, want sum or max", where, flags)
			case len(flags) > 2 || len(flags) == 2 && flags[1] != "shard":
				t.Errorf("%s: flags %v, want at most \"shard\" after the fold", where, flags)
			}
			if histogram := f.Type == reflect.TypeFor[obs.Snapshot](); histogram != (kind == "histogram") || histogram != (f.Tag.Get("json") == "-") {
				t.Errorf("%s: kind %s on a %s with json %q", where, kind, f.Type, f.Tag.Get("json"))
			}
			if name == "" {
				continue // not exported to /metrics
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s exports %s without help", where, name)
			}
			if typ != reflect.TypeFor[relational.ShardStat]() {
				out = append(out, family{"ufilterd_" + name, kind, where, series})
			}
			if slices.Contains(flags, "shard") {
				out = append(out, family{"ufilterd_shard_" + name, kind, where, true})
			}
		}
	}
	walk(reflect.TypeFor[ViewStats](), false)
	walk(reflect.TypeFor[relational.DBStats](), false) // ShardStat embeds it
	for _, typ := range taggedStats {
		if !seen[typ] {
			t.Errorf("%s is not reached from ViewStats, so /metrics does not render it", typ)
		}
	}
	return out
}

// TestMetricsTable holds /metrics to its one-declaration contract:
// family names are unique, every per-view family emits exactly one
// sample per registered view (so no field's value can land under
// another's name), every ufilterd_* name README.md documents is actually
// exported, and every exported family is documented there.
func TestMetricsTable(t *testing.T) {
	s, ts := newTestServer(t) // views "book" and "proteins"
	if _, err := s.Registry.Add(ViewConfig{Name: "book4", Dataset: "book", Shards: 4}); err != nil {
		t.Fatal(err) // a sharded view, so the per-shard families are exported too
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d, err %v", resp.StatusCode, err)
	}
	text := string(body)

	families := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		if families[name] {
			t.Errorf("family %s declared twice", name)
		}
		families[name] = true
	}

	views := []string{"book", "book4", "proteins"}
	for _, m := range declaredFamilies(t) {
		if !families[m.name] {
			t.Errorf("%s (%s) is not exported", m.name, m.where)
		}
		if m.series {
			continue
		}
		sample := m.name
		if m.kind == "histogram" {
			sample += "_count"
		}
		for _, v := range views {
			if n := strings.Count(text, "\n"+sample+`{view="`+v+`"} `); n != 1 {
				t.Errorf("%s has %d samples for view %s, want 1", sample, n, v)
			}
		}
		if n := strings.Count(text, "\n"+sample+"{"); n != len(views) {
			t.Errorf("%s has %d samples, want one per view (%d)", sample, n, len(views))
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`ufilterd_[a-z0-9_]+`).FindAllString(string(readme), -1) {
		documented[name] = true
		if !families[name] {
			t.Errorf("README.md documents %s, which /metrics does not export", name)
		}
	}
	for name := range families {
		if !documented[name] {
			t.Errorf("/metrics exports %s, which README.md does not document", name)
		}
	}
}

// TestStatDeclarations holds the statistics to one declaration each:
// every field of the taggedStats structs carries exactly one well-formed
// stat tag, a histogram is an obs.Snapshot kept off /stats, and no
// family name is declared twice.
func TestStatDeclarations(t *testing.T) {
	names := map[string]string{} // family → where it is declared
	for _, m := range declaredFamilies(t) {
		if prev, dup := names[m.name]; dup {
			t.Errorf("family %s declared by %s and by %s", m.name, prev, m.where)
		}
		names[m.name] = m.where
	}
}

// TestDeclaredOnce holds the declare-once rules to their readers: no
// non-test Go outside metrics.go (and bench/, which reads the wire)
// spells a ufilterd_ metric name, and metrics.go spells only the two
// prefixes; metrics.go hands whole statistics structs to obs.WriteStats
// instead of reading their fields — it selects no field of ViewStats or
// of the taggedStats structs but the series lists, nothing through
// Filter.Database, and nothing through .Versions; and no writeError call
// in this package picks a status, which is the error code's to pick.
func TestDeclaredOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || path == filepath.Join(root, "bench")):
			return filepath.SkipDir
		case d.IsDir() || filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") ||
			path == filepath.Join(root, "internal", "server", "metrics.go"):
			return nil
		}
		data, err := os.ReadFile(path)
		if bytes.Contains(data, []byte("ufilterd_")) {
			t.Errorf("%s spells a ufilterd_ metric name outside internal/server/metrics.go", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fields := map[string]bool{}
	for _, typ := range append(slices.Clone(taggedStats), reflect.TypeFor[ViewStats]()) {
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() && !f.Anonymous && f.Type.Kind() != reflect.Slice {
				fields[f.Name] = true
			}
		}
	}
	fset := token.NewFileSet()
	pkg, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
		return ""
	}
	for path, file := range pkg["server"].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && filepath.Base(path) == "metrics.go" && strings.Contains(lit.Value, "ufilterd_") &&
				lit.Value != `"ufilterd_"` && lit.Value != `"ufilterd_shard_"` {
				t.Errorf("%s: metrics.go spells the family %s", fset.Position(lit.Pos()), lit.Value)
			}
			sel, ok := n.(*ast.SelectorExpr)
			switch {
			case filepath.Base(path) != "metrics.go" || !ok:
			case fields[sel.Sel.Name]:
				t.Errorf("%s: metrics.go reads the statistic field %s", fset.Position(sel.Pos()), sel.Sel.Name)
			case name(sel.X) == "Versions":
				t.Errorf("%s: metrics.go reads .Versions.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			case name(sel.X) == "Database" && name(sel.X.(*ast.SelectorExpr).X) == "Filter":
				t.Errorf("%s: metrics.go reads Filter.Database.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "writeError" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.BasicLit:
						if n.Kind == token.INT {
							t.Errorf("%s: writeError is passed the integer %s", fset.Position(n.Pos()), n.Value)
						}
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && x.Name == "http" && strings.HasPrefix(n.Sel.Name, "Status") {
							t.Errorf("%s: writeError is passed http.%s", fset.Position(n.Pos()), n.Sel.Name)
						}
					}
					return true
				})
			}
			return true
		})
	}
}
