package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ufilter"
)

func batchInsertReview(id int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>%d</reviewid><comment>batch</comment></review> }`, id)
}

// TestApplyBatchEndpoint: POST /views/{name}/apply-batch runs the
// group-commit path, returns per-update verdicts in order, and the
// view's stats report the batch plus one commit group for its accepted
// updates.
func TestApplyBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	v, _ := s.Registry.Get("book")
	groupsBefore := v.Filter.Stats().Database.GroupCommits

	resp, body := postJSON(t, ts.URL+"/views/book/apply-batch", map[string]any{
		"updates": []string{
			batchInsertReview(601),
			batchInsertReview(602),
			batchInsertReview(601), // duplicate key: data conflict
			"NOT AN UPDATE",
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results  []ufilter.BatchResult `json:"results"`
		Accepted int                   `json:"accepted"`
		Rejected int                   `json:"rejected"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if len(out.Results) != 4 || out.Accepted != 2 || out.Rejected != 2 {
		t.Fatalf("results=%d accepted=%d rejected=%d", len(out.Results), out.Accepted, out.Rejected)
	}
	if !out.Results[0].Result.Accepted || !out.Results[1].Result.Accepted {
		t.Errorf("first two updates should be accepted: %+v", out.Results[:2])
	}
	if out.Results[2].Result == nil || out.Results[2].Result.Accepted {
		t.Errorf("duplicate insert should be rejected: %+v", out.Results[2])
	}
	if out.Results[3].Err == nil {
		t.Errorf("parse failure should surface as a per-update error: %+v", out.Results[3])
	}

	st := v.Stats()
	if st.Applies.Batches != 1 {
		t.Errorf("batches = %d, want 1", st.Applies.Batches)
	}
	if st.Applies.Total != 4 || st.Applies.Accepted != 2 {
		t.Errorf("applies = %+v", st.Applies)
	}
	if got := st.Filter.Database.GroupCommits - groupsBefore; got != 1 {
		t.Errorf("commit groups = %d, want 1 (one flush for the batch)", got)
	}

	// The stats JSON carries the live queue depth field.
	var raw map[string]any
	r := getJSON(t, ts.URL+"/views/book/stats", &raw)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", r.StatusCode)
	}
	if _, ok := raw["queue_depth"]; !ok {
		t.Errorf("stats JSON missing queue_depth: %v", raw)
	}

	// Metrics expose the batch and commit-group counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody := new(strings.Builder)
	if _, err := io.Copy(mbody, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`ufilterd_apply_batches_total{view="book"} 1`,
		`ufilterd_group_commits_total{view="book"}`,
		`ufilterd_plan_cache_plans{view="book"}`,
	} {
		if !strings.Contains(mbody.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestApplyBatchValidation: an empty batch is a 400.
func TestApplyBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/views/book/apply-batch", map[string]any{"updates": []string{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}
