package server

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsTable holds /metrics to its one-table contract: family
// names are unique, every per-view family emits exactly one sample per
// registered view (so no row's value can land under another's name),
// and every ufilterd_* name README.md documents is actually exported.
func TestMetricsTable(t *testing.T) {
	_, ts := newTestServer(t) // views "book" and "proteins"
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

	views := []string{"book", "proteins"}
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
	documented := regexp.MustCompile(`ufilterd_[a-z0-9_]+`).FindAllString(string(readme), -1)
	if len(documented) == 0 {
		t.Fatal("README.md documents no ufilterd_* metric; the check below would be vacuous")
	}
	for _, name := range documented {
		if !families[name] {
			t.Errorf("README.md documents %s, which /metrics does not export", name)
		}
	}
}
