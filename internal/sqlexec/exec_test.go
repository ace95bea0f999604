package sqlexec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/relational"
)

func bookSchema(t testing.TB) *relational.Schema {
	t.Helper()
	publisher, err := relational.NewTableDef("publisher", []relational.Column{
		{Name: "pubid", Type: relational.TypeString},
		{Name: "pubname", Type: relational.TypeString, NotNull: true, Unique: true},
	}, []string{"pubid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	book, err := relational.NewTableDef("book", []relational.Column{
		{Name: "bookid", Type: relational.TypeString},
		{Name: "title", Type: relational.TypeString, NotNull: true},
		{Name: "pubid", Type: relational.TypeString},
		{Name: "price", Type: relational.TypeFloat,
			Checks: []relational.CheckPredicate{{Op: relational.OpGT, Operand: relational.Float_(0)}}},
		{Name: "year", Type: relational.TypeInt},
	}, []string{"bookid"}, []relational.ForeignKey{{
		Name: "book_pub_fk", Columns: []string{"pubid"},
		RefTable: "publisher", RefColumns: []string{"pubid"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		t.Fatal(err)
	}
	review, err := relational.NewTableDef("review", []relational.Column{
		{Name: "bookid", Type: relational.TypeString},
		{Name: "reviewid", Type: relational.TypeString},
		{Name: "comment", Type: relational.TypeString},
		{Name: "reviewer", Type: relational.TypeString},
	}, []string{"bookid", "reviewid"}, []relational.ForeignKey{{
		Name: "review_book_fk", Columns: []string{"bookid"},
		RefTable: "book", RefColumns: []string{"bookid"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := relational.NewSchema(publisher, book, review)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// write runs fn in a transaction of its own and commits it; an error
// from either fails the test.
func write(t testing.TB, db *relational.Database, fn func(*relational.Txn) error) {
	t.Helper()
	txn := db.Begin()
	if err := fn(txn); err != nil {
		txn.Rollback()
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// insert writes one row in a transaction of its own.
func insert(t testing.TB, db *relational.Database, table string, vals map[string]relational.Value) {
	t.Helper()
	write(t, db, func(txn *relational.Txn) error {
		_, err := txn.Insert(table, vals)
		return err
	})
}

func newExec(t testing.TB) *Executor {
	db := relational.NewDatabase(bookSchema(t))
	for _, p := range [][2]string{{"A01", "McGraw-Hill Inc."}, {"B01", "Prentice-Hall Inc."}, {"A02", "Simon & Schuster Inc."}} {
		insert(t, db, "publisher", map[string]relational.Value{
			"pubid": relational.String_(p[0]), "pubname": relational.String_(p[1]),
		})
	}
	books := []struct {
		id, title, pub string
		price          float64
		year           int64
	}{
		{"98001", "TCP/IP Illustrated", "A01", 37.00, 1997},
		{"98002", "Programming in Unix", "A02", 45.00, 1985},
		{"98003", "Data on the Web", "A01", 48.00, 2004},
	}
	for _, b := range books {
		insert(t, db, "book", map[string]relational.Value{
			"bookid": relational.String_(b.id), "title": relational.String_(b.title),
			"pubid": relational.String_(b.pub), "price": relational.Float_(b.price), "year": relational.Int_(b.year),
		})
	}
	for _, r := range [][4]string{
		{"98001", "001", "A good book on network.", "William"},
		{"98001", "002", "Useful for advanced user.", "John"},
	} {
		insert(t, db, "review", map[string]relational.Value{
			"bookid": relational.String_(r[0]), "reviewid": relational.String_(r[1]),
			"comment": relational.String_(r[2]), "reviewer": relational.String_(r[3]),
		})
	}
	return NewExecutor(db)
}

func TestSelectSingleTable(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "title"}},
		From:    []string{"book"},
		Where:   []Predicate{Eq("book", "bookid", relational.String_("98001"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "TCP/IP Illustrated" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectRangePredicate(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "bookid"}},
		From:    []string{"book"},
		Where: []Predicate{
			Cmp("book", "price", relational.OpLT, relational.Float_(50)),
			Cmp("book", "year", relational.OpGT, relational.Int_(1990)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's view predicate: price<50 AND year>1990 keeps 98001, 98003.
	if len(rs.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(rs.Rows), rs.Rows)
	}
}

func TestProbeQueryPQ1(t *testing.T) {
	// The paper's PQ1: book not in the view returns empty.
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "bookid"}},
		From:    []string{"publisher", "book"},
		Where: []Predicate{
			Eq("book", "title", relational.String_("Programming in Unix")),
			Cmp("book", "price", relational.OpLT, relational.Float_(50)),
			Cmp("book", "year", relational.OpGT, relational.Int_(1990)),
			JoinOn("book", "pubid", "publisher", "pubid"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Empty() {
		t.Fatalf("PQ1 should be empty (book fails year predicate), got %v", rs.Rows)
	}
}

func TestProbeQueryPQ2(t *testing.T) {
	// The paper's PQ2: "Data on the Web" qualifies; bookid feeds U1.
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "bookid"}},
		From:    []string{"publisher", "book"},
		Where: []Predicate{
			Eq("book", "title", relational.String_("Data on the Web")),
			Cmp("book", "price", relational.OpLT, relational.Float_(50)),
			Cmp("book", "year", relational.OpGT, relational.Int_(1990)),
			JoinOn("book", "pubid", "publisher", "pubid"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "98003" {
		t.Fatalf("PQ2 rows = %v, want [[98003]]", rs.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{
			{Table: "book", Column: "bookid"},
			{Table: "review", Column: "reviewid"},
			{Table: "publisher", Column: "pubname"},
		},
		From: []string{"publisher", "book", "review"},
		Where: []Predicate{
			JoinOn("book", "pubid", "publisher", "pubid"),
			JoinOn("review", "bookid", "book", "bookid"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (two reviews of 98001)", len(rs.Rows))
	}
	for _, row := range rs.Rows {
		if row[0].Str != "98001" || row[2].Str != "McGraw-Hill Inc." {
			t.Errorf("unexpected row %v", row)
		}
	}
}

func TestSelectStarExpansion(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{From: []string{"publisher"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 2 || len(rs.Rows) != 3 {
		t.Fatalf("star expansion: %d cols %d rows", len(rs.Columns), len(rs.Rows))
	}
}

func TestSelectRowID(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "rowid"}},
		From:    []string{"book"},
		Where:   []Predicate{Eq("book", "bookid", relational.String_("98002"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Kind != relational.KindInt {
		t.Fatalf("rowid rows = %v", rs.Rows)
	}
}

func TestUnqualifiedColumnResolution(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Column: "title"}},
		From:    []string{"book"},
		Where:   []Predicate{Eq("", "bookid", relational.String_("98001"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// Ambiguity: pubid exists in both book and publisher.
	_, err = e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Column: "pubid"}},
		From:    []string{"book", "publisher"},
	})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestMaterializeAndInTemp(t *testing.T) {
	e := newExec(t)
	rs, err := e.ExecSelect(&SelectStmt{
		Project: []ColRef{{Table: "book", Column: "bookid"}},
		From:    []string{"book"},
		Where:   []Predicate{Eq("book", "title", relational.String_("TCP/IP Illustrated"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Materialize("TAB_book", rs)

	// The paper's U3: DELETE FROM review WHERE bookid IN (SELECT bookid FROM TAB_book).
	txn := e.DB.BeginTxn()
	n, err := e.ExecDelete(txn, &DeleteStmt{
		Table: "review",
		Where: []Predicate{{
			Left: ColOperand("review", "bookid"), InTemp: "TAB_book", InTempColumn: "bookid",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if got := e.DB.RowCount("review"); got != 0 {
		t.Fatalf("review count = %d", got)
	}
}

func TestDeleteZeroTuplesWarning(t *testing.T) {
	e := newExec(t)
	txn := e.DB.BeginTxn()
	defer txn.Rollback()
	n, err := e.ExecDelete(txn, &DeleteStmt{
		Table: "review",
		Where: []Predicate{Eq("review", "bookid", relational.String_("98002"))},
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v, want the 'zero tuples deleted' warning (0, nil)", n, err)
	}
}

func TestInsertConstraintErrorSurfaces(t *testing.T) {
	e := newExec(t)
	// The paper's U2: duplicate key insert rejected by the engine.
	txn := e.DB.BeginTxn()
	defer txn.Rollback()
	_, err := e.ExecInsert(txn, &InsertStmt{Table: "book", Values: map[string]relational.Value{
		"bookid": relational.String_("98001"), "title": relational.String_("Operating Systems"),
		"pubid": relational.String_("A01"), "price": relational.Float_(20), "year": relational.Int_(1994),
	}})
	if !errors.Is(err, relational.ErrPrimaryKey) {
		t.Fatalf("err = %v, want ErrPrimaryKey", err)
	}
	if !relational.IsConstraintViolation(err) {
		t.Error("constraint violation not recognized")
	}
}

func TestExecUpdate(t *testing.T) {
	e := newExec(t)
	txn := e.DB.BeginTxn()
	defer txn.Rollback()
	n, err := e.ExecUpdate(txn, &UpdateStmt{
		Table: "book",
		Set:   map[string]relational.Value{"price": relational.Float_(39.99)},
		Where: []Predicate{Eq("book", "bookid", relational.String_("98001"))},
	})
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestStatementStrings(t *testing.T) {
	sel := &SelectStmt{
		Project: []ColRef{{Table: "book", Column: "bookid"}},
		From:    []string{"publisher", "book"},
		Where: []Predicate{
			Eq("book", "title", relational.String_("Data on the Web")),
			JoinOn("book", "pubid", "publisher", "pubid"),
		},
	}
	want := "SELECT book.bookid FROM publisher, book WHERE book.title = 'Data on the Web' AND book.pubid = publisher.pubid"
	if got := sel.String(); got != want {
		t.Errorf("select string:\n got %s\nwant %s", got, want)
	}
	ins := &InsertStmt{Table: "review", Values: map[string]relational.Value{
		"bookid": relational.String_("98003"), "reviewid": relational.String_("001"),
	}}
	if got := ins.String(); got != "INSERT INTO review (bookid, reviewid) VALUES ('98003', '001')" {
		t.Errorf("insert string: %s", got)
	}
	del := &DeleteStmt{Table: "review", Where: []Predicate{{
		Left: ColOperand("review", "bookid"), InTemp: "TAB_book", InTempColumn: "bookid",
	}}}
	if got := del.String(); got != "DELETE FROM review WHERE review.bookid IN (SELECT bookid FROM TAB_book)" {
		t.Errorf("delete string: %s", got)
	}
	upd := &UpdateStmt{Table: "book", Set: map[string]relational.Value{"price": relational.Float_(1.5)},
		Where: []Predicate{Eq("book", "bookid", relational.String_("98001"))}}
	if got := upd.String(); got != "UPDATE book SET price = 1.5 WHERE book.bookid = '98001'" {
		t.Errorf("update string: %s", got)
	}
}

func TestJoinViewInsertDecomposition(t *testing.T) {
	e := newExec(t)
	view := &JoinViewDef{Name: "RelationalBookView", Tables: []string{"publisher", "book", "review"}}
	// The paper's UV: full tuple for an insert of review 001 on 98003.
	txn := e.DB.BeginTxn()
	n, err := e.InsertIntoJoinView(txn, view, map[string]relational.Value{
		"publisher.pubid":   relational.String_("A01"),
		"publisher.pubname": relational.String_("McGraw-Hill Inc."),
		"book.bookid":       relational.String_("98003"),
		"book.title":        relational.String_("Data on the Web"),
		"book.pubid":        relational.String_("A01"),
		"book.price":        relational.Float_(48.00),
		"review.bookid":     relational.String_("98003"),
		"review.reviewid":   relational.String_("001"),
		"review.comment":    relational.String_("easy read and useful"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("inserted %d base rows, want 1 (only the review is new)", n)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ids, _ := e.DB.LookupEqual("review", []string{"bookid"}, []relational.Value{relational.String_("98003")})
	if len(ids) != 1 {
		t.Fatalf("review not inserted")
	}
}

func TestJoinViewInsertInconsistentRejected(t *testing.T) {
	e := newExec(t)
	view := &JoinViewDef{Name: "V", Tables: []string{"publisher", "book"}}
	txn := e.DB.BeginTxn()
	defer txn.Rollback()
	_, err := e.InsertIntoJoinView(txn, view, map[string]relational.Value{
		"publisher.pubid":   relational.String_("A01"),
		"publisher.pubname": relational.String_("Wrong Name"),
		"book.bookid":       relational.String_("98009"),
		"book.title":        relational.String_("New"),
		"book.pubid":        relational.String_("A01"),
		"book.price":        relational.Float_(5),
	})
	if err == nil || !strings.Contains(err.Error(), "publisher row on column pubname") {
		t.Fatalf("inconsistent view insert: err = %v, want a conflict on publisher.pubname", err)
	}
}

// TestJoinViewInsertAtomic: a view insert that writes a new publisher
// and then fails on a clashing book is one statement of the caller's
// transaction: its publisher is not committed on its own, and a
// rollback leaves publisher as it was.
func TestJoinViewInsertAtomic(t *testing.T) {
	e := newExec(t)
	view := &JoinViewDef{Name: "V", Tables: []string{"publisher", "book"}}
	before := e.DB.RowCount("publisher")
	txn := e.DB.BeginTxn()
	_, err := e.InsertIntoJoinView(txn, view, map[string]relational.Value{
		"publisher.pubid":   relational.String_("Z09"),
		"publisher.pubname": relational.String_("Zed Press"),
		"book.bookid":       relational.String_("98001"), // taken, with another title
		"book.title":        relational.String_("Clash"),
		"book.pubid":        relational.String_("Z09"),
		"book.price":        relational.Float_(5),
	})
	if err == nil {
		t.Fatal("a view insert whose book key clashes should fail")
	}
	z09 := func() int {
		ids, _ := e.DB.LookupEqual("publisher", []string{"pubid"}, []relational.Value{relational.String_("Z09")})
		return len(ids)
	}
	if n := z09(); n != 0 {
		t.Errorf("publisher Z09 committed by a failed statement (%d rows)", n)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got, n := e.DB.RowCount("publisher"), z09(); got != before || n != 0 {
		t.Errorf("after rollback: %d publisher rows (want %d), Z09 in %d", got, before, n)
	}
}

func TestIndexProbesCounted(t *testing.T) {
	e := newExec(t)
	before := e.IndexProbes
	_, err := e.ExecSelect(&SelectStmt{
		From:  []string{"book"},
		Where: []Predicate{Eq("book", "bookid", relational.String_("98001"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.IndexProbes <= before {
		t.Error("indexed equality select should use the index")
	}
}

func TestDuplicateFromRejected(t *testing.T) {
	e := newExec(t)
	_, err := e.ExecSelect(&SelectStmt{From: []string{"book", "book"}})
	if err == nil {
		t.Fatal("duplicate FROM should be rejected")
	}
}

// ExecSelect compiles and evaluates a select in one shot against the
// live database. Statements containing parameter placeholders must go
// through Prepare/Bind.
func (e *Executor) ExecSelect(s *SelectStmt) (*ResultSet, error) {
	return e.ExecSelectOn(e.DB, s)
}

// JoinOn builds an equi-join predicate between two columns.
func JoinOn(lt, lc, rt, rc string) Predicate {
	return Predicate{Left: ColOperand(lt, lc), Op: relational.OpEQ, Right: ColOperand(rt, rc)}
}
