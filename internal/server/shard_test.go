package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShardedView registers a 4-shard book view, drives an apply
// through the HTTP pipeline, and checks the per-shard rollups surface
// on /stats and /metrics.
func TestShardedView(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book4", Dataset: "book", Shards: 4})
	if err != nil {
		t.Fatalf("add sharded view: %v", err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()

	update := `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT <review><reviewid>990</reviewid><comment> sharded </comment></review>
}`
	body, _ := json.Marshal(map[string]string{"update": update})
	resp, err := http.Post(ts.URL+"/views/book4/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply status %d", resp.StatusCode)
	}

	st := v.Stats()
	if st.Shards != 4 {
		t.Fatalf("stats shards: got %d, want 4", st.Shards)
	}
	if len(st.ShardStats) != 4 {
		t.Fatalf("shard_stats entries: got %d, want 4", len(st.ShardStats))
	}
	rows := 0
	for _, ss := range st.ShardStats {
		rows += ss.Rows
	}
	if rows != st.RowsTotal {
		t.Fatalf("per-shard rows sum %d != rows_total %d", rows, st.RowsTotal)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metrics)
	for _, want := range []string{
		`ufilterd_shards{view="book4"} 4`,
		`ufilterd_shard_rows_total{view="book4",shard="0"}`,
		`ufilterd_shard_rows_total{view="book4",shard="3"}`,
		`ufilterd_shard_commit_seq{view="book4",shard="0"}`,
		`ufilterd_shard_txn_conflicts_total{view="book4",shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// An unsharded view reports shards=1 and no per-shard block.
	if _, err := reg.Add(ViewConfig{Name: "plain", Dataset: "book"}); err != nil {
		t.Fatalf("add plain view: %v", err)
	}
	pv, _ := reg.Get("plain")
	if st := pv.Stats(); st.Shards != 1 || len(st.ShardStats) != 0 {
		t.Fatalf("plain view: shards=%d shard_stats=%d, want 1 and 0", st.Shards, len(st.ShardStats))
	}
}

// TestColdStartRetryAfter exercises the cold-start fallback: a view
// whose apply-latency histogram is empty must still quote a
// queue-derived Retry-After, not a degenerate constant, and the
// estimate must scale with the configured queue depth.
func TestColdStartRetryAfter(t *testing.T) {
	reg := NewRegistry()
	// Large queue so depth × defaultApplyLatency clears the 1s floor.
	v, err := reg.Add(ViewConfig{Name: "cold", Dataset: "book", QueueDepth: 64})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	// Fill the limiter as a saturated cold burst would.
	for i := 0; i < 64; i++ {
		if !v.tryAcquire() {
			t.Fatalf("slot %d not acquired", i)
		}
	}
	defer func() {
		for i := 0; i < 64; i++ {
			v.release()
		}
	}()
	got := v.retryAfter()
	want := defaultApplyLatency * 64 // 3.2s
	if got < want-time.Second || got > want+time.Second {
		t.Fatalf("cold retry-after: got %v, want about %v", got, want)
	}
}
