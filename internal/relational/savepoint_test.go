package relational

import "testing"

// savepointTestDB builds a one-table database with three rows.
func savepointTestDB(t *testing.T) *Database {
	t.Helper()
	item, err := NewTableDef("item", []Column{
		{Name: "id", Type: TypeInt, NotNull: true},
		{Name: "name", Type: TypeString},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(item)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	for i, n := range []string{"ant", "bee", "cat"} {
		write(t, db, func(tx *Txn) error {
			_, err := tx.Insert("item", map[string]Value{"id": Int_(int64(i + 1)), "name": String_(n)})
			return err
		})
	}
	return db
}

// TestSavepointRollbackTo: rolling back to a savepoint undoes only the
// work logged after it and keeps the transaction open — the per-update
// isolation the group-commit batch path builds on.
func TestSavepointRollbackTo(t *testing.T) {
	db := savepointTestDB(t)
	txn := db.Begin()

	if _, err := txn.Insert("item", map[string]Value{"id": Int_(10), "name": String_("dog")}); err != nil {
		t.Fatal(err)
	}
	mark := txn.Savepoint()
	if _, err := txn.Insert("item", map[string]Value{"id": Int_(11), "name": String_("eel")}); err != nil {
		t.Fatal(err)
	}
	ids, _ := txn.LookupEqual("item", []string{"id"}, []Value{Int_(1)})
	if err := txn.UpdateRow("item", ids[0], map[string]Value{"name": String_("mutated")}); err != nil {
		t.Fatal(err)
	}
	if err := txn.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	// Post-savepoint work gone, pre-savepoint work intact, txn open.
	// The transaction's own reads see its surviving uncommitted work.
	if got, _ := txn.LookupEqual("item", []string{"id"}, []Value{Int_(11)}); len(got) != 0 {
		t.Error("row 11 survived RollbackTo")
	}
	if name := colValue(t, txn, "item", ids[0], "name"); name.Str != "ant" {
		t.Errorf("update survived RollbackTo: %v", name)
	}
	if got, _ := txn.LookupEqual("item", []string{"id"}, []Value{Int_(10)}); len(got) != 1 {
		t.Error("pre-savepoint insert lost")
	}
	// Committed readers see none of it until Commit.
	if got, _ := db.LookupEqual("item", []string{"id"}, []Value{Int_(10)}); len(got) != 0 {
		t.Error("uncommitted insert visible to committed-state readers")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.LookupEqual("item", []string{"id"}, []Value{Int_(10)}); len(got) != 1 {
		t.Error("committed insert lost")
	}
	if db.RowCount("item") != 4 {
		t.Errorf("rows = %d, want 4", db.RowCount("item"))
	}
}

// TestOneGroupPerCommit: without a WAL every commit is one commit group,
// so one transaction covering N statements counts once; with one, the
// commits queued behind one fsync count once together — the
// group-commit accounting Stats exposes.
func TestOneGroupPerCommit(t *testing.T) {
	db := savepointTestDB(t)
	groups := func() int64 { return db.Stats().GroupCommits }
	base := groups()

	txn := db.Begin()
	for i := 20; i < 25; i++ {
		if _, err := txn.Insert("item", map[string]Value{"id": Int_(int64(i)), "name": String_("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := groups() - base; got != 1 {
		t.Errorf("groups after one commit = %d, want 1", got)
	}
	// Five single-statement transactions: five groups.
	for i := 30; i < 35; i++ {
		txn := db.Begin()
		if _, err := txn.Insert("item", map[string]Value{"id": Int_(int64(i)), "name": String_("y")}); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := groups() - base; got != 6 {
		t.Errorf("groups = %d, want 6", got)
	}
	// Three commits queued behind one fsync of a log count once.
	wdb, _ := openWALDB(t, t.TempDir(), WALOptions{})
	wbase := wdb.Stats().GroupCommits
	for _, err := range commitQueued(t, wdb.wal, nil, parentTxn(t, wdb, 40, "g0"), parentTxn(t, wdb, 41, "g1"), parentTxn(t, wdb, 42, "g2")) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := wdb.Stats().GroupCommits - wbase; got != 1 {
		t.Errorf("groups after 3 queued commits = %d, want 1", got)
	}
	// Rollback publishes nothing.
	txn = db.Begin()
	if _, err := txn.Insert("item", map[string]Value{"id": Int_(99), "name": String_("z")}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := groups() - base; got != 6 {
		t.Errorf("rollback counted a group: %d, want 6", got)
	}
}
