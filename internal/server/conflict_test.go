package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/relational"
)

const applyReplacePrice = `{"update":"FOR $book IN document(\"BookView.xml\")/book WHERE $book/title/text() = \"Data on the Web\" UPDATE $book { REPLACE $book/price WITH <price>41.00</price> }"}`

// TestApplyWriteConflictAnswers409: an apply that exhausts its
// first-updater-wins retries against a held row claim is answered 409
// Conflict (never 5xx), the per-view stats expose the conflict
// counters, and the row claim released, the same apply succeeds.
func TestApplyWriteConflictAnswers409(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"})
	if err != nil {
		t.Fatal(err)
	}
	v.Filter.MaxWriteRetries = 2 // fail fast against the held claim
	srv := httptest.NewServer(New(reg).Handler())
	defer srv.Close()

	// Claim the probed book's row with a raw transaction.
	db := v.Filter.Exec.DB
	claim := db.BeginTxn()
	ids, err := claim.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup: %v %v", ids, err)
	}
	if err := claim.UpdateRow("book", ids[0], map[string]relational.Value{"price": relational.Float_(1)}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/views/book/apply", "application/json", strings.NewReader(applyReplacePrice))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}

	// Stats surface the write path's counters.
	st := v.Stats()
	if st.TxnConflictsTotal == 0 {
		t.Fatalf("txn_conflicts_total = 0 after a 409, stats = %+v", st)
	}
	if st.TxnRetriesTotal == 0 {
		t.Fatal("txn_retries_total = 0 after a 409")
	}
	if st.Applies.Conflicted != 1 {
		t.Fatalf("applies.conflicted = %d, want 1", st.Applies.Conflicted)
	}
	if st.TxnsActive == 0 {
		t.Fatal("txns_active = 0 while the claim transaction is open")
	}

	// Release the claim: the same apply now commits.
	if err := claim.Rollback(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/views/book/apply", "application/json", strings.NewReader(applyReplacePrice))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.Accepted {
		t.Fatalf("post-release apply: status %d accepted %v", resp.StatusCode, body.Accepted)
	}

	// The metrics endpoint renders the new series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"ufilterd_txn_conflicts_total{view=\"book\"}",
		"ufilterd_txn_retries_total{view=\"book\"}",
		"ufilterd_txns_active{view=\"book\"}",
		"ufilterd_apply_conflict_409_total{view=\"book\"} 1",
		"ufilterd_group_commits_total{view=\"book\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestConcurrentConflictingAppliesNo5xx fires concurrent applies that
// all rewrite the same row: every response must be 200 (accepted after
// retries) or 409 (retries exhausted) — never a 5xx — and the engine
// must have recorded the conflicts.
func TestConcurrentConflictingAppliesNo5xx(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book", QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg).Handler())
	defer srv.Close()

	// Hold a claim just long enough to guarantee at least one conflict
	// even when GOMAXPROCS=1 serializes the HTTP handlers.
	db := v.Filter.Exec.DB
	claim := db.BeginTxn()
	ids, _ := claim.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if err := claim.UpdateRow("book", ids[0], map[string]relational.Value{"price": relational.Float_(1)}); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		// Release once the retry machinery has engaged.
		for v.Filter.WriteStats().Retries == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		claim.Rollback()
		close(released)
	}()

	const clients = 8
	var wg sync.WaitGroup
	var bad atomic.Value
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"update":"FOR $book IN document(\"BookView.xml\")/book WHERE $book/title/text() = \"Data on the Web\" UPDATE $book { REPLACE $book/price WITH <price>4%d.00</price> }"}`, c%9)
			resp, err := http.Post(srv.URL+"/views/book/apply", "application/json", strings.NewReader(body))
			if err != nil {
				bad.Store(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				bad.Store(fmt.Errorf("got %d", resp.StatusCode))
				return
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusTooManyRequests {
				bad.Store(fmt.Errorf("unexpected status %d", resp.StatusCode))
			}
		}()
	}
	wg.Wait()
	<-released
	if err, _ := bad.Load().(error); err != nil {
		t.Fatal(err)
	}
	if v.Stats().TxnConflictsTotal == 0 {
		t.Fatal("no conflicts recorded by the contended workload")
	}
}

// TestApplyWALFailureAnswers503: an apply whose commit the write-ahead
// log cannot make durable is the server's failure, not the update's: it
// is answered 503 with a Retry-After, never 422, and leaves nothing
// behind; once the log recovers the same apply commits.
func TestApplyWALFailureAnswers503(t *testing.T) {
	faults := &pagestore.FaultFS{}
	relational.FileSystem = faults
	defer func() { relational.FileSystem = pagestore.OS }()
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.CloseWALs()
	srv := httptest.NewServer(New(reg).Handler())
	defer srv.Close()
	const insertReview = `{"update":"FOR $book IN document(\"BookView.xml\")/book WHERE $book/title/text() = \"Data on the Web\" UPDATE $book { INSERT <review><reviewid>991</reviewid><comment> durable </comment></review> }"}`
	rows := v.Stats().RowsTotal

	if err := faults.Arm("sync:segment=error"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/views/book/apply", "application/json", strings.NewReader(insertReview))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("apply under a failing fsync: status %d, Retry-After %q; want 503 with one", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := faults.Arm(""); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().RowsTotal; got != rows {
		t.Fatalf("rows_total %d after the failed apply, want %d", got, rows)
	}
	resp, err = http.Post(srv.URL+"/views/book/apply", "application/json", strings.NewReader(insertReview))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply after the fault cleared: status %d, want 200", resp.StatusCode)
	}
	if got := v.Stats().RowsTotal; got != rows+1 {
		t.Fatalf("rows_total %d after the successful apply, want %d", got, rows+1)
	}
}
