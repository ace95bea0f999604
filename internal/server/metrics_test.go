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
	"repro/internal/relational"
)

// TestMetricsTable holds /metrics to its one-table contract: family
// names are unique, every per-view family emits exactly one sample per
// registered view (so no row's value can land under another's name),
// every ufilterd_* name README.md documents is actually exported, and
// every exported family is documented there.
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
	for _, m := range viewMetrics {
		if !families[m.name] {
			t.Errorf("table row %s is not exported", m.name)
		}
		for _, v := range views {
			if n := strings.Count(text, "\n"+m.name+`{view="`+v+`"} `); n != 1 {
				t.Errorf("%s has %d samples for view %s, want 1", m.name, n, v)
			}
		}
		if n := strings.Count(text, "\n"+m.name+"{"); n != len(views) {
			t.Errorf("%s has %d samples, want one per view (%d)", m.name, n, len(views))
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

// TestStatDeclarations holds the engine statistics to one declaration
// each: every exported field of DBStats, VersionStats and ShardStat
// carries exactly one well-formed stat tag, a histogram is an
// obs.Snapshot kept off /stats, and no family name is declared twice
// across the tags and viewMetrics.
func TestStatDeclarations(t *testing.T) {
	names := map[string]string{} // family → where it is declared
	declare := func(name, where string) {
		if prev, dup := names[name]; dup {
			t.Errorf("family %s declared by %s and by %s", name, prev, where)
		}
		names[name] = where
	}
	for _, m := range viewMetrics {
		declare(m.name, "viewMetrics")
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[relational.DBStats](),
		reflect.TypeFor[relational.VersionStats](),
		reflect.TypeFor[relational.ShardStat](),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous || !f.IsExported() {
				continue // an embedded struct's fields are checked with their own type
			}
			where := typ.Name() + "." + f.Name
			if n := strings.Count(string(f.Tag), `stat:"`); n != 1 {
				t.Errorf("%s has %d stat tags, want exactly 1", where, n)
				continue
			}
			parts := strings.Split(f.Tag.Get("stat"), ",")
			family, kind, flags := parts[0], parts[1], parts[2:]
			switch {
			case kind == "label":
				if family == "" || len(flags) != 0 {
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
			if family == "" {
				continue // not exported to /metrics
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s exports %s without help", where, family)
			}
			if typ != reflect.TypeFor[relational.ShardStat]() {
				declare("ufilterd_"+family, where)
			}
			if slices.Contains(flags, "shard") {
				declare("ufilterd_shard_"+family, where)
			}
		}
	}
}

// TestDeclaredOnce holds the declare-once rule to its two readers: no
// non-test Go outside metrics.go (and bench/, which reads the wire)
// spells a ufilterd_ metric name, and metrics.go hands whole statistics
// structs to relational.WriteStats instead of reading their fields — it
// selects no field of DBStats or ShardStat, nothing through
// Filter.Database, and nothing through .Versions.
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
	for _, typ := range []reflect.Type{reflect.TypeFor[relational.DBStats](), reflect.TypeFor[relational.ShardStat]()} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !f.Anonymous {
				fields[f.Name] = true
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("DBStats and ShardStat declare no fields")
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
		return ""
	}
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case fields[sel.Sel.Name]:
			t.Errorf("%s: metrics.go reads the engine statistic field %s", fset.Position(sel.Pos()), sel.Sel.Name)
		case name(sel.X) == "Versions":
			t.Errorf("%s: metrics.go reads .Versions.%s", fset.Position(sel.Pos()), sel.Sel.Name)
		case name(sel.X) == "Database" && name(sel.X.(*ast.SelectorExpr).X) == "Filter":
			t.Errorf("%s: metrics.go reads Filter.Database.%s", fset.Position(sel.Pos()), sel.Sel.Name)
		}
		return true
	})
}
