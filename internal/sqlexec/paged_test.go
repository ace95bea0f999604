package sqlexec

import (
	"fmt"
	"testing"

	"repro/internal/relational"
)

// TestProbeFaultsEachRowOnce: a snapshot probe over paged rows pays one
// buffer-pool Get per page-only row it reads — the lookup that verifies a
// row's key hands its values to the join, which does not fetch the row
// again — with the index probes the plan always issued. A second pass,
// its pages resident in a pool large enough to hold them, misses nothing.
func TestProbeFaultsEachRowOnce(t *testing.T) {
	db := relational.NewDatabase(bookSchema(t))
	str := relational.String_
	for p := range 3 {
		pub := fmt.Sprintf("P%d", p)
		insert(t, db, "publisher", map[string]relational.Value{"pubid": str(pub), "pubname": str("name " + pub)})
		for b := range 2 + p%2 {
			book := fmt.Sprintf("%s-B%d", pub, b)
			insert(t, db, "book", map[string]relational.Value{"bookid": str(book), "title": str("t"), "pubid": str(pub)})
			for r := range 2 {
				insert(t, db, "review", map[string]relational.Value{"bookid": str(book), "reviewid": str(fmt.Sprint(r))})
			}
		}
	}
	// Opening a log over a populated database checkpoints every row and
	// drops its version: each read of a row below faults its page.
	if _, err := db.OpenWAL(t.TempDir(), relational.WALOptions{PageCacheBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if snap := db.Snapshot(); snap.VersionStats().ResidentRows != 0 {
		t.Fatalf("rows still resident after the checkpoint: %+v", snap.VersionStats())
	} else {
		snap.Close()
	}

	e := NewExecutor(db)
	probe, err := e.Prepare(&SelectStmt{
		Project: []ColRef{{Table: "review", Column: "reviewid"}},
		From:    []string{"review", "book", "publisher"},
		Where: []Predicate{
			{Left: ColOperand("publisher", "pubid"), Op: relational.OpEQ, Right: ParamOperand(0)},
			JoinOn("book", "pubid", "publisher", "pubid"),
			JoinOn("review", "bookid", "book", "bookid"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// P1 has one publisher row, three books and six reviews: ten page-only
	// rows read through five index probes (the publisher, its books, one
	// per book for the reviews).
	const rowsRead, indexProbes, reviews = 1 + 3 + 6, 1 + 1 + 3, 6
	pass := func(n int) (gets, misses int64) {
		t.Helper()
		snap := db.Snapshot()
		defer snap.Close()
		st0, ex0 := db.Stats(), e.Stats()
		rs, err := probe.ExecSelectOn(snap, str("P1"))
		if err != nil {
			t.Fatal(err)
		}
		st1, ex1 := db.Stats(), e.Stats()
		if len(rs.Rows) != reviews {
			t.Fatalf("pass %d: %d rows, want %d", n, len(rs.Rows), reviews)
		}
		if got := ex1.IndexProbes - ex0.IndexProbes; got != indexProbes {
			t.Errorf("pass %d: %d index probes, want %d", n, got, indexProbes)
		}
		if got := ex1.RowsScanned - ex0.RowsScanned; got != 0 {
			t.Errorf("pass %d: scanned %d rows, want none", n, got)
		}
		misses = st1.PagecacheMisses - st0.PagecacheMisses
		return st1.PagecacheHits - st0.PagecacheHits + misses, misses
	}
	if gets, misses := pass(1); gets != rowsRead || misses == 0 {
		t.Errorf("first pass: %d pool Gets (%d misses), want one per page-only row read (%d), some missing", gets, misses, rowsRead)
	}
	if gets, misses := pass(2); gets != rowsRead || misses != 0 {
		t.Errorf("second pass: %d pool Gets, %d misses; want %d Gets, all hits", gets, misses, rowsRead)
	}
}
