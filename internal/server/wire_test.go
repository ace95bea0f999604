package server

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// updateGoldens rewrites testdata/*.golden from this binary's output:
//
//	go test ./internal/server -run Golden -update-goldens
//
// The committed goldens were written by the commit before statistics
// were declared on their struct fields, so they pin the wire that
// change had to keep.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/*.golden from this binary's output")

// removedStatsKeys are the /stats paths deliberately dropped since the
// goldens were written: copies of filter.database counters that the
// versions block used to repeat.
var removedStatsKeys = []string{
	"versions.snapshots_active",
	"versions.snapshots_opened",
	"versions.versions_reclaimed",
	"versions.reclaims",
	"versions.commit_seq",
}

// wireServer serves newTestServer's two in-memory views plus a durable
// 4-shard one, so every family, label set and stats path has a source.
func wireServer(t *testing.T) (*httptest.Server, []string) {
	t.Helper()
	reg := NewRegistry()
	for _, vc := range []ViewConfig{{Name: "book", Dataset: "book"}, {Name: "proteins", Dataset: "psd", Proteins: 50}} {
		if _, err := reg.Add(vc); err != nil {
			t.Fatal(err)
		}
	}
	reg.DataDir = t.TempDir()
	if _, err := reg.Add(ViewConfig{Name: "book4", Dataset: "book", Shards: 4}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reg.CloseWALs() })
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg.Names()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return body
}

// metricsShape reduces a /metrics page to its TYPE lines and its sample
// names with labels, values dropped, sorted.
func metricsShape(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "", strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			out = append(out, line)
		default:
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(out)
	return out
}

// statsKeys flattens a /stats document into its key paths ("[]" marks
// an array's elements), one "view path" line each, sorted and unique.
func statsKeys(view string, doc any) []string {
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, c)
			}
		case []any:
			for _, c := range v {
				walk(prefix+"[]", c)
			}
		default:
			seen[view+" "+prefix] = true
		}
	}
	walk("", doc)
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareGolden checks got against the golden file as sets, or rewrites
// the file under -update-goldens. drop filters golden lines that are
// allowed to be gone.
func compareGolden(t *testing.T, name string, got []string, drop func(string) bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !drop(l) {
			want[l] = true
		}
	}
	have := map[string]bool{}
	for _, l := range got {
		have[l] = true
		if !want[l] {
			t.Errorf("%s: unexpected %q", name, l)
		}
	}
	for l := range want {
		if !have[l] {
			t.Errorf("%s: missing %q", name, l)
		}
	}
}

// TestMetricsWireGolden: /metrics keeps every family, TYPE line and
// label set the golden holds, and adds none.
func TestMetricsWireGolden(t *testing.T) {
	ts, _ := wireServer(t)
	got := metricsShape(string(getBody(t, ts.URL+"/metrics")))
	compareGolden(t, "metrics.golden", got, func(string) bool { return false })
}

// TestStatsKeysGolden: /views/{name}/stats keeps every key path the
// golden holds except removedStatsKeys, and adds none.
func TestStatsKeysGolden(t *testing.T) {
	ts, views := wireServer(t)
	var got []string
	for _, v := range views {
		var doc any
		if err := json.Unmarshal(getBody(t, ts.URL+"/views/"+v+"/stats"), &doc); err != nil {
			t.Fatal(err)
		}
		got = append(got, statsKeys(v, doc)...)
	}
	removed := func(l string) bool {
		_, path, _ := strings.Cut(l, " ")
		return slices.Contains(removedStatsKeys, path)
	}
	for _, l := range got {
		if removed(l) && !*updateGoldens {
			t.Errorf("stats: %q was removed but is served again", l)
		}
	}
	compareGolden(t, "stats_keys.golden", got, removed)
}
