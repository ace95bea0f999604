package ufilter

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
)

// concurrent_write_test exercises the parallel write path: applies
// running concurrently in their own transactions, first-updater-wins
// conflicts resolved by the executor's retry loop, the group-commit
// scheduler, and per-update atomicity under contention. Run with
// -race.

func replacePriceDataOnTheWeb(price int) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book { REPLACE $book/price WITH <price>%d.00</price> }`, price)
}

func insertReviewUnder(bookTitle, reviewID string) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = %q
UPDATE $book { INSERT <review><reviewid>%s</reviewid><comment>cw</comment></review> }`, bookTitle, reviewID)
}

// claimBookRow opens a raw transaction that claims the probed book's
// row (an uncommitted price update), returning the transaction so the
// test controls when the claim is released.
func claimBookRow(t *testing.T, e *Filter, bookid string) relational.WriteTxn {
	t.Helper()
	db := e.Exec.DB
	txn := db.BeginTxn()
	ids, err := txn.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_(bookid)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup book %s: %v, %v", bookid, ids, err)
	}
	if err := txn.UpdateRow("book", ids[0], map[string]relational.Value{"price": relational.Float_(1)}); err != nil {
		t.Fatal(err)
	}
	return txn
}

// TestConcurrentDisjointAppliesAllCommit fans conflict-free applies
// (distinct review keys under one book — insert-only, so no
// write-write races) across goroutines; every apply must be accepted
// and every row must land exactly once.
func TestConcurrentDisjointAppliesAllCommit(t *testing.T) {
	e := newBookExec(t)
	const writers = 8
	const perWriter = 25

	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := e.Apply(context.Background(), insertReviewUnder("Data on the Web", fmt.Sprintf("cw-%d-%d", w, i)))
				if err != nil {
					firstErr.Store(err)
					return
				}
				if !res.Accepted {
					firstErr.Store(fmt.Errorf("apply rejected: %s", res.Reason))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	snap := e.Exec.DB.OpenSnapshot()
	defer snap.Close()
	ids, err := snap.LookupEqual("book", []string{"title"}, []relational.Value{relational.String_("Data on the Web")})
	if err != nil || len(ids) != 1 {
		t.Fatalf("book lookup: %v, %v", ids, err)
	}
	n := 0
	snap.Scan("review", func(r *relational.Row) bool { n++; return true })
	// bookdb seeds 2 reviews; every concurrent insert adds one.
	if want := 2 + writers*perWriter; n != want {
		t.Fatalf("reviews = %d, want %d", n, want)
	}
	ws := e.WriteStats()
	if ws.Exhausted != 0 {
		t.Fatalf("conflict-free workload exhausted retries %d times", ws.Exhausted)
	}
	if got := e.Exec.DB.Stats().GroupedTxns; got < int64(writers*perWriter) {
		t.Fatalf("grouped txns = %d, want >= %d", got, writers*perWriter)
	}
}

// TestConflictRetryThenSucceed: an apply that meets another
// transaction's claim retries with backoff and commits once the claim
// is released — the caller never sees the conflict.
func TestConflictRetryThenSucceed(t *testing.T) {
	e := newBookExec(t)
	e.MaxWriteRetries = 1000 // keep the retry window generous for CI schedulers
	claim := claimBookRow(t, e, "98003")

	type applyOut struct {
		res *Result
		err error
	}
	done := make(chan applyOut, 1)
	go func() {
		res, err := e.Apply(context.Background(), replacePriceDataOnTheWeb(41))
		done <- applyOut{res, err}
	}()

	// Wait until the apply has demonstrably lost at least one race...
	deadline := time.Now().Add(5 * time.Second)
	for e.WriteStats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("apply never retried against the held claim")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// ...then release the claim; the apply must now get through.
	if err := claim.Rollback(); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("apply after claim release: %v", out.err)
	}
	if !out.res.Accepted {
		t.Fatalf("apply rejected: %s", out.res.Reason)
	}
	vals := bookValues(t, e, "98003")
	if vals["price"].Float != 41 {
		t.Fatalf("price = %v, want 41", vals["price"])
	}
	ws := e.WriteStats()
	if ws.Retries == 0 || ws.ConflictedApplies == 0 {
		t.Fatalf("write stats did not record the conflict: %+v", ws)
	}
	if ws.Exhausted != 0 {
		t.Fatalf("retry-then-succeed exhausted: %+v", ws)
	}
}

func bookValues(t *testing.T, e *Filter, bookid string) map[string]relational.Value {
	t.Helper()
	ids, err := e.Exec.DB.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_(bookid)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup book %s: %v, %v", bookid, ids, err)
	}
	row, err := e.Exec.DB.Get("book", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	def, _ := e.Exec.DB.Schema().Table("book")
	vals := make(map[string]relational.Value, len(row.Values))
	for i, c := range def.Columns {
		vals[c.Name] = row.Values[i]
	}
	return vals
}

// TestConflictRetriesExhausted: a claim that is never released makes
// the apply fail with relational.ErrWriteConflict (the error ufilterd
// maps to 409 Conflict) after the capped retries, leaving the
// database untouched by the apply.
func TestConflictRetriesExhausted(t *testing.T) {
	e := newBookExec(t)
	e.MaxWriteRetries = 3 // fail fast; the claim is held for the duration
	claim := claimBookRow(t, e, "98003")
	defer claim.Rollback()

	_, err := e.Apply(context.Background(), replacePriceDataOnTheWeb(42))
	if !errors.Is(err, relational.ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	ws := e.WriteStats()
	if ws.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", ws.Exhausted)
	}
	if ws.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (3 attempts)", ws.Retries)
	}
}

// TestContendedAppliesCommitOrConflict: eight writers rewrite ONE row
// with a retry cap low enough that some lose. Every apply must end as
// an accepted commit or as ErrWriteConflict — nothing else, nothing
// lost — and the engine must have committed exactly the accepted ones.
func TestContendedAppliesCommitOrConflict(t *testing.T) {
	e := newBookExec(t)
	e.MaxWriteRetries = 2
	const writers, perWriter = 8, 16
	before := e.Exec.DB.Stats().GroupedTxns

	var wg sync.WaitGroup
	var accepted, conflicted atomic.Int64
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := e.Apply(context.Background(), replacePriceDataOnTheWeb(10+(w*perWriter+i)%39))
				switch {
				case errors.Is(err, relational.ErrWriteConflict):
					conflicted.Add(1)
				case err != nil:
					t.Errorf("writer %d apply %d: %v", w, i, err)
				case !res.Accepted:
					t.Errorf("writer %d apply %d rejected: %s", w, i, res.Reason)
				default:
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := accepted.Load() + conflicted.Load(); got != writers*perWriter {
		t.Fatalf("accepted %d + conflicted %d = %d, want %d submitted", accepted.Load(), conflicted.Load(), got, writers*perWriter)
	}
	if got := e.Exec.DB.Stats().GroupedTxns - before; got != accepted.Load() {
		t.Fatalf("engine committed %d txns, want the %d accepted applies", got, accepted.Load())
	}
	if got := e.WriteStats().Exhausted; got != conflicted.Load() {
		t.Fatalf("Exhausted = %d, want the %d surfaced conflicts", got, conflicted.Load())
	}
	t.Logf("%d accepted, %d conflicted, %d retries", accepted.Load(), conflicted.Load(), e.WriteStats().Retries)
}

// TestConflictingBatchAtomicity: a group-commit batch whose second
// item conflicts with an external transaction commits its disjoint
// sibling in the first round and retries only the conflicted item,
// which lands whole once the external claim resolves — per-update
// atomicity with no partial translations at any point.
func TestConflictingBatchAtomicity(t *testing.T) {
	e := newBookExec(t)
	e.MaxWriteRetries = 1000
	claim := claimBookRow(t, e, "98003")

	type batchOut struct{ brs []BatchResult }
	done := make(chan batchOut, 1)
	go func() {
		done <- batchOut{e.ApplyBatch([]string{
			insertReviewUnder("TCP/IP Illustrated", "batch-1"), // disjoint book: commits round 1
			replacePriceDataOnTheWeb(43),                       // claimed row: retried
		})}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for e.WriteStats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never retried against the held claim")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// While the conflicted item is spinning, its sibling is already
	// committed and the claimed row still shows the committed seed
	// state to fresh snapshots.
	snap := e.Exec.DB.OpenSnapshot()
	rids, _ := snap.LookupEqual("review", []string{"reviewid"}, []relational.Value{relational.String_("batch-1")})
	if len(rids) != 1 {
		snap.Close()
		t.Fatal("disjoint batch sibling not committed while conflicted item retries")
	}
	snap.Close()
	if err := claim.Rollback(); err != nil {
		t.Fatal(err)
	}
	out := <-done
	for _, br := range out.brs {
		if br.Err != nil {
			t.Fatalf("batch item %d: %v", br.Index, br.Err)
		}
		if br.Result == nil || !br.Result.Accepted {
			t.Fatalf("batch item %d rejected: %+v", br.Index, br.Result)
		}
	}
	vals := bookValues(t, e, "98003")
	if vals["price"].Float != 43 {
		t.Fatalf("price = %v, want 43", vals["price"])
	}
}

// TestNoPartialTranslationVisible loops a multi-statement update block
// (delete every review of the book, insert a fresh one) while snapshot
// readers assert the block is atomic: every committed state shows
// exactly one review under the book — never zero (delete visible
// without the insert) and never two.
func TestNoPartialTranslationVisible(t *testing.T) {
	e := newBookExec(t)
	// Normalize book 98003 (one review after this apply).
	res, err := e.Apply(context.Background(), `
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98003"
UPDATE $book {
  DELETE $book/review,
  INSERT <review><reviewid>seed</reviewid><comment>x</comment></review>
}`)
	if err != nil || !res.Accepted {
		t.Fatalf("seed apply: %+v, %v", res, err)
	}

	done := make(chan struct{})
	var werr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			res, err := e.Apply(context.Background(), fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "98003"
UPDATE $book {
  DELETE $book/review,
  INSERT <review><reviewid>r%d</reviewid><comment>x</comment></review>
}`, i))
			if err != nil {
				werr.Store(err)
				return
			}
			if !res.Accepted {
				werr.Store(fmt.Errorf("apply rejected: %s", res.Reason))
				return
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		snap := e.Exec.DB.OpenSnapshot()
		n := 0
		snap.Scan("review", func(r *relational.Row) bool {
			if r.Values[0].Str == "98003" { // bookid column
				n++
			}
			return true
		})
		snap.Close()
		if n != 1 {
			close(done)
			wg.Wait()
			t.Fatalf("snapshot saw %d reviews under 98003, want exactly 1 (partial translation visible)", n)
		}
	}
	close(done)
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		t.Fatal(err)
	}
}
