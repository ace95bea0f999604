package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
)

// mvcc_test exercises the snapshot-isolated read path: checks (schema
// and data level) racing the serialized apply pipeline, and
// snapshot-pinned batch checks observing strictly pre-apply state.
// Run with -race.

const delReviewsDataOnTheWeb = `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { DELETE $book/review }`

func insertReviewDataOnTheWeb(i int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { INSERT <review><reviewid>%d</reviewid><comment>mvcc</comment></review> }`, 100000+i)
}

// TestChecksDuringLongApplyBatchRace floods the executor with
// schema-level and snapshot-pinned data checks while a writer loops
// long group-commit ApplyBatch calls. Every check must complete
// without error and without ever observing a torn state (the probed
// context either exists or it does not — the book itself is never
// removed, so data checks must all accept).
func TestChecksDuringLongApplyBatchRace(t *testing.T) {
	e := newBookExec(t)

	done := make(chan struct{})
	var applyErr atomic.Value
	var wg sync.WaitGroup

	// Writer: batches of inserts followed by a delete that restores the
	// base state, all under group commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			batch := make([]string, 0, 17)
			for i := 0; i < 16; i++ {
				batch = append(batch, insertReviewDataOnTheWeb(n*16+i))
			}
			batch = append(batch, delReviewsDataOnTheWeb)
			for _, br := range e.ApplyBatch(batch) {
				if br.Err != nil {
					applyErr.Store(br.Err)
					return
				}
				if br.Result != nil && !br.Result.Accepted {
					applyErr.Store(fmt.Errorf("apply rejected: %s", br.Result.Reason))
					return
				}
			}
		}
	}()

	checkErrs := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				var res *Result
				if i%2 == 0 {
					res, err = e.Check(delReviewsDataOnTheWeb)
				} else {
					// Snapshot-pinned data check: the probed context (the
					// book) exists in every committed state.
					res, err = e.CheckData(delReviewsDataOnTheWeb)
				}
				if err != nil {
					checkErrs <- err
					return
				}
				if !res.Accepted {
					checkErrs <- fmt.Errorf("check rejected at %v: %s", res.RejectedAt, res.Reason)
					return
				}
			}
		}(c)
	}

	time.Sleep(200 * time.Millisecond)
	close(done)
	wg.Wait()
	if err, _ := applyErr.Load().(error); err != nil {
		t.Fatalf("apply: %v", err)
	}
	select {
	case err := <-checkErrs:
		t.Fatalf("check: %v", err)
	default:
	}
}

// TestCheckBatchDataPinnedPreApplyState pins a snapshot, lets an apply
// change the state the checks depend on, and verifies the pinned batch
// still answers from the pre-apply state while a fresh data check sees
// the post-apply truth.
func TestCheckBatchDataPinnedPreApplyState(t *testing.T) {
	e := newBookExec(t)
	renameAway := `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { REPLACE $book/title WITH <title>Data off the Web</title> }`

	snap := e.Snapshot()
	defer snap.Close()

	// The apply retitles the book, so the update context of
	// delReviewsDataOnTheWeb ceases to exist in the latest state.
	res, err := e.Apply(renameAway)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rename rejected: %s", res.Reason)
	}

	// Pinned batch: every verdict reflects the pre-apply state.
	pinned := e.CheckBatchDataAt(snap, []string{delReviewsDataOnTheWeb, delReviewsDataOnTheWeb}, 2)
	for _, br := range pinned {
		if br.Err != nil {
			t.Fatalf("pinned check: %v", br.Err)
		}
		if !br.Result.Accepted {
			t.Fatalf("pinned check rejected at %v: %s (snapshot leaked post-apply state)",
				br.Result.RejectedAt, br.Result.Reason)
		}
	}

	// A fresh data check sees the rename.
	fresh, err := e.CheckData(delReviewsDataOnTheWeb)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Accepted || fresh.RejectedAt != StepData {
		t.Fatalf("fresh data check = accepted=%v rejectedAt=%v, want StepData rejection", fresh.Accepted, fresh.RejectedAt)
	}
	if !strings.Contains(fresh.Reason, "does not exist") {
		t.Fatalf("fresh data check reason = %q", fresh.Reason)
	}

	// The schema-level verdict is data-independent and stays accepted.
	schema, err := e.Check(delReviewsDataOnTheWeb)
	if err != nil || !schema.Accepted {
		t.Fatalf("schema check = %+v, %v; want accepted", schema, err)
	}
}

// TestCheckDataCacheParity: the snapshot data check must reach the
// same verdict off the cached plan as off a throwaway plan compiled from
// the update — in particular the shared-part probes of an insert
// (CondSharedPartsExist) must run, or CheckData would accept inserts
// Apply then rejects.
func TestCheckDataCacheParity(t *testing.T) {
	// A u4-shaped insert whose <publisher> shared part does NOT exist
	// in the base: the data check must reject it at StepData.
	missingShared := `
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT
    <book>
      <bookid>"97001"</bookid>
      <title>"Operating Systems"</title>
      <price> 20.00 </price>
      <publisher>
        <pubid>Z99</pubid>
        <pubname>No Such Press</pubname>
      </publisher>
    </book>
}`
	for _, tc := range []struct {
		name, text string
		accepted   bool
	}{
		{"delete-ok", delReviewsDataOnTheWeb, true},
		{"insert-missing-shared-part", missingShared, false},
	} {
		cached := newBookExec(t)
		a, errA := cached.CheckData(tc.text)
		b, errB := runReference(newBookExec(t), tc.text, referenceCheckData)
		if errA != nil || errB != nil {
			t.Fatalf("%s: errors cached=%v uncached=%v", tc.name, errA, errB)
		}
		if a.Accepted != tc.accepted || b.Accepted != tc.accepted {
			t.Fatalf("%s: accepted cached=%v uncached=%v, want %v (cached reason %q, uncached reason %q)",
				tc.name, a.Accepted, b.Accepted, tc.accepted, a.Reason, b.Reason)
		}
		if a.RejectedAt != b.RejectedAt {
			t.Fatalf("%s: rejected-at diverges: cached=%v uncached=%v", tc.name, a.RejectedAt, b.RejectedAt)
		}
		if !tc.accepted && a.RejectedAt != StepData {
			t.Fatalf("%s: rejected at %v, want StepData", tc.name, a.RejectedAt)
		}
	}
}

// TestCheckDataMidTransactionInvisibility pins nothing but relies on
// CheckData's own snapshot: an uncommitted transaction's deletes must
// be invisible to a concurrent data check.
func TestCheckDataMidTransactionInvisibility(t *testing.T) {
	e := newBookExec(t)
	db := e.Exec.DB.(*relational.Database)
	// Open a transaction that cascade-deletes the probed book, but do
	// not commit.
	txn := db.Begin()
	ids, err := txn.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup book 98003: %v, %v", ids, err)
	}
	if _, err := txn.Delete("book", ids[0]); err != nil {
		t.Fatal(err)
	}
	// The update context is gone from the writer's own view...
	if n := len(txn.ScanIDs("book")); n != 2 {
		t.Fatalf("writer sees %d books, want 2", n)
	}
	// ...but a data check still accepts: the uncommitted delete is
	// invisible to its snapshot.
	res, err := e.CheckData(delReviewsDataOnTheWeb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("data check saw uncommitted state: rejected at %v: %s", res.RejectedAt, res.Reason)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	// After rollback the latest state accepts too.
	res, err = e.CheckData(delReviewsDataOnTheWeb)
	if err != nil || !res.Accepted {
		t.Fatalf("post-rollback data check = %+v, %v; want accepted", res, err)
	}
}
