package relational

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// bookSchema builds the running-example schema of the paper's Fig. 1:
// publisher(pubid PK, pubname UNIQUE NOT NULL), book(bookid PK, title
// NOT NULL, pubid FK, price CHECK(>0), year), review((bookid,reviewid)
// PK, bookid FK, comment, reviewer).
func bookSchema(t testing.TB, bookPolicy, reviewPolicy DeletePolicy) *Schema {
	t.Helper()
	publisher, err := NewTableDef("publisher", []Column{
		{Name: "pubid", Type: TypeString},
		{Name: "pubname", Type: TypeString, NotNull: true, Unique: true},
	}, []string{"pubid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	book, err := NewTableDef("book", []Column{
		{Name: "bookid", Type: TypeString},
		{Name: "title", Type: TypeString, NotNull: true},
		{Name: "pubid", Type: TypeString},
		{Name: "price", Type: TypeFloat, Checks: []CheckPredicate{{Op: OpGT, Operand: Float_(0)}}},
		{Name: "year", Type: TypeInt},
	}, []string{"bookid"}, []ForeignKey{{
		Name: "book_pub_fk", Columns: []string{"pubid"},
		RefTable: "publisher", RefColumns: []string{"pubid"}, OnDelete: bookPolicy,
	}})
	if err != nil {
		t.Fatal(err)
	}
	review, err := NewTableDef("review", []Column{
		{Name: "bookid", Type: TypeString},
		{Name: "reviewid", Type: TypeString},
		{Name: "comment", Type: TypeString},
		{Name: "reviewer", Type: TypeString},
	}, []string{"bookid", "reviewid"}, []ForeignKey{{
		Name: "review_book_fk", Columns: []string{"bookid"},
		RefTable: "book", RefColumns: []string{"bookid"}, OnDelete: reviewPolicy,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(publisher, book, review)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// write runs fn in a transaction of its own and commits it; an error
// from either fails the test.
func write(t testing.TB, db *Database, fn func(*Txn) error) {
	t.Helper()
	tx := db.Begin()
	if err := fn(tx); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// colValue reads one column of a row r sees: Get, then the column's
// position from ColumnIndex.
func colValue(t testing.TB, r Reader, table string, id RowID, column string) Value {
	t.Helper()
	row, err := r.Get(table, id)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := r.Schema().Table(table)
	i, ok := td.ColumnIndex(column)
	if !ok {
		t.Fatalf("%v: %s.%s", ErrNoSuchColumn, table, column)
	}
	return row.Values[i]
}

func loadBookData(t testing.TB, db *Database) {
	t.Helper()
	pubs := [][2]string{{"A01", "McGraw-Hill Inc."}, {"B01", "Prentice-Hall Inc."}, {"A02", "Simon & Schuster Inc."}}
	for _, p := range pubs {
		write(t, db, func(tx *Txn) error {
			_, err := tx.Insert("publisher", map[string]Value{"pubid": String_(p[0]), "pubname": String_(p[1])})
			return err
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
		write(t, db, func(tx *Txn) error {
			_, err := tx.Insert("book", map[string]Value{
				"bookid": String_(b.id), "title": String_(b.title), "pubid": String_(b.pub),
				"price": Float_(b.price), "year": Int_(b.year),
			})
			return err
		})
	}
	reviews := [][4]string{
		{"98001", "001", "A good book on network.", "William"},
		{"98001", "002", "Useful for advanced user.", "John"},
	}
	for _, r := range reviews {
		write(t, db, func(tx *Txn) error {
			_, err := tx.Insert("review", map[string]Value{
				"bookid": String_(r[0]), "reviewid": String_(r[1]), "comment": String_(r[2]), "reviewer": String_(r[3]),
			})
			return err
		})
	}
}

func newBookDB(t testing.TB) *Database {
	db := NewDatabase(bookSchema(t, DeleteCascade, DeleteCascade))
	loadBookData(t, db)
	return db
}

func TestInsertAndLookup(t *testing.T) {
	db := newBookDB(t)
	if got := db.RowCount("book"); got != 3 {
		t.Fatalf("book count = %d, want 3", got)
	}
	ids, err := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("lookup 98001: got %d rows, want 1", len(ids))
	}
	if title := colValue(t, db, "book", ids[0], "title"); title.Str != "TCP/IP Illustrated" {
		t.Errorf("title = %q", title.Str)
	}
	if price := colValue(t, db, "book", ids[0], "price"); price.Float != 37.00 {
		t.Errorf("price = %v", price)
	}
}

func TestNotNullViolation(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98009"), "pubid": String_("A01"), "price": Float_(10),
	})
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want ErrNotNull", err)
	}
}

func TestEmptyStringTreatedAsNull(t *testing.T) {
	// Paper Example 1 / update u1: empty <title/> violates NOT NULL.
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98004"), "title": String_(" "), "pubid": String_("A01"), "price": Float_(10),
	})
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want ErrNotNull for empty title", err)
	}
}

func TestCheckViolation(t *testing.T) {
	// Paper Example 1 / update u1: price 0.00 violates CHECK(price > 0).
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98004"), "title": String_("X"), "pubid": String_("A01"), "price": Float_(0),
	})
	if !errors.Is(err, ErrCheck) {
		t.Fatalf("err = %v, want ErrCheck", err)
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	// Paper update u4: inserting bookid 98001 again conflicts with the key.
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98001"), "title": String_("Operating Systems"), "pubid": String_("A01"), "price": Float_(20),
	})
	if !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("err = %v, want ErrPrimaryKey", err)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := tx.Insert("review", map[string]Value{
		"bookid": String_("98002"), "reviewid": String_("001"), "comment": String_("ok"),
	}); err != nil {
		t.Fatalf("distinct composite key rejected: %v", err)
	}
	_, err := tx.Insert("review", map[string]Value{
		"bookid": String_("98001"), "reviewid": String_("001"), "comment": String_("dup"),
	})
	if !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("err = %v, want ErrPrimaryKey on composite key", err)
	}
}

func TestUniqueViolation(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("publisher", map[string]Value{
		"pubid": String_("C01"), "pubname": String_("McGraw-Hill Inc."),
	})
	if !errors.Is(err, ErrUnique) {
		t.Fatalf("err = %v, want ErrUnique", err)
	}
}

func TestForeignKeyViolation(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98005"), "title": String_("Ghost"), "pubid": String_("ZZZ"), "price": Float_(5),
	})
	if !errors.Is(err, ErrForeignKey) {
		t.Fatalf("err = %v, want ErrForeignKey", err)
	}
}

func TestNullForeignKeyAllowed(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	if _, err := tx.Insert("book", map[string]Value{
		"bookid": String_("98005"), "title": String_("Orphan"), "price": Float_(5),
	}); err != nil {
		t.Fatalf("NULL FK should be allowed: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCascade(t *testing.T) {
	// Deleting publisher A01 cascades through books 98001, 98003 and
	// both reviews of 98001: 1 + 2 + 2 = 5 rows.
	db := newBookDB(t)
	ids, _ := db.LookupEqual("publisher", []string{"pubid"}, []Value{String_("A01")})
	var n int
	write(t, db, func(tx *Txn) (err error) {
		n, err = tx.Delete("publisher", ids[0])
		return err
	})
	if n != 5 {
		t.Fatalf("cascade deleted %d rows, want 5", n)
	}
	if got := db.RowCount("book"); got != 1 {
		t.Errorf("book count = %d, want 1", got)
	}
	if got := db.RowCount("review"); got != 0 {
		t.Errorf("review count = %d, want 0", got)
	}
}

func TestDeleteRestrict(t *testing.T) {
	db := NewDatabase(bookSchema(t, DeleteRestrict, DeleteRestrict))
	loadBookData(t, db)
	ids, _ := db.LookupEqual("publisher", []string{"pubid"}, []Value{String_("A01")})
	tx := db.Begin()
	_, err := tx.Delete("publisher", ids[0])
	tx.Rollback()
	if !errors.Is(err, ErrRestrict) {
		t.Fatalf("err = %v, want ErrRestrict", err)
	}
	if got := db.RowCount("publisher"); got != 3 {
		t.Errorf("publisher count = %d, want 3 after restricted delete", got)
	}
}

func TestDeleteSetNull(t *testing.T) {
	// SET NULL is the policy §7.3 observes in the PSD domain.
	db := NewDatabase(bookSchema(t, DeleteSetNull, DeleteCascade))
	loadBookData(t, db)
	ids, _ := db.LookupEqual("publisher", []string{"pubid"}, []Value{String_("A01")})
	var n int
	write(t, db, func(tx *Txn) (err error) {
		n, err = tx.Delete("publisher", ids[0])
		return err
	})
	if n != 1 {
		t.Fatalf("deleted %d rows, want 1 (books survive with NULL pubid)", n)
	}
	bids, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")})
	if pubid := colValue(t, db, "book", bids[0], "pubid"); !pubid.IsNull() {
		t.Errorf("book.pubid = %v, want NULL", pubid)
	}
}

func TestDeleteMissingRowIsNoOp(t *testing.T) {
	db := newBookDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	n, err := tx.Delete("book", 99999)
	if err != nil || n != 0 {
		t.Fatalf("delete missing: n=%d err=%v, want 0,nil", n, err)
	}
}

func TestUpdateRow(t *testing.T) {
	db := newBookDB(t)
	ids, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")})
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("book", ids[0], map[string]Value{"price": Float_(39.99)})
	})
	if price := colValue(t, db, "book", ids[0], "price"); price.Float != 39.99 {
		t.Errorf("price = %v", price)
	}
	// Index must follow the update.
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("book", ids[0], map[string]Value{"bookid": String_("98001X")})
	})
	if got, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")}); len(got) != 0 {
		t.Errorf("old key still indexed")
	}
	if got, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001X")}); len(got) != 1 {
		t.Errorf("new key not indexed")
	}
}

func TestUpdateRowConstraintRollback(t *testing.T) {
	db := newBookDB(t)
	ids, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")})
	tx := db.Begin()
	err := tx.UpdateRow("book", ids[0], map[string]Value{"bookid": String_("98002")})
	tx.Rollback()
	if !errors.Is(err, ErrPrimaryKey) {
		t.Fatalf("err = %v, want ErrPrimaryKey", err)
	}
	// The failed update must leave indexes intact.
	if got, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")}); len(got) != 1 {
		t.Errorf("row lost from index after failed update")
	}
}

func TestTransactionRollbackRestoresEverything(t *testing.T) {
	db := newBookDB(t)
	before := db.TotalRows()
	txn := db.Begin()
	if _, err := txn.Insert("publisher", map[string]Value{"pubid": String_("D01"), "pubname": String_("New Pub")}); err != nil {
		t.Fatal(err)
	}
	ids, _ := txn.LookupEqual("publisher", []string{"pubid"}, []Value{String_("A01")})
	if _, err := txn.Delete("publisher", ids[0]); err != nil {
		t.Fatal(err)
	}
	bids, _ := txn.LookupEqual("book", []string{"bookid"}, []Value{String_("98002")})
	if err := txn.UpdateRow("book", bids[0], map[string]Value{"price": Float_(1)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.TotalRows(); got != before {
		t.Fatalf("TotalRows = %d, want %d after rollback", got, before)
	}
	// Cascade-deleted reviews restored and indexed.
	rids, _ := db.LookupEqual("review", []string{"bookid"}, []Value{String_("98001")})
	if len(rids) != 2 {
		t.Errorf("reviews of 98001 = %d, want 2", len(rids))
	}
	bids, _ = db.LookupEqual("book", []string{"bookid"}, []Value{String_("98002")})
	if price := colValue(t, db, "book", bids[0], "price"); price.Float != 45.00 {
		t.Errorf("price = %v, want 45 restored", price)
	}
}

func TestTransactionCommit(t *testing.T) {
	db := newBookDB(t)
	txn := db.Begin()
	if _, err := txn.Insert("publisher", map[string]Value{"pubid": String_("D01"), "pubname": String_("New Pub")}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.RowCount("publisher"); got != 4 {
		t.Fatalf("publisher count = %d, want 4 after commit", got)
	}
	if err := txn.Commit(); err == nil {
		t.Error("double commit should fail")
	}
}

// TestFinishedTxnRefusesWrites: after Commit, and after Rollback, every
// write through the transaction fails and changes nothing — neither
// the row count nor what a fresh snapshot reads.
func TestFinishedTxnRefusesWrites(t *testing.T) {
	for _, finish := range []struct {
		name string
		fn   func(*Txn) error
	}{{"commit", (*Txn).Commit}, {"rollback", (*Txn).Rollback}} {
		t.Run(finish.name, func(t *testing.T) {
			db := newBookDB(t)
			ids, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_("98001")})
			txn := db.Begin()
			if _, err := txn.Insert("publisher", map[string]Value{"pubid": String_("D01"), "pubname": String_("New Pub")}); err != nil {
				t.Fatal(err)
			}
			if err := finish.fn(txn); err != nil {
				t.Fatal(err)
			}
			snapshotRows := func() map[string][]string {
				snap := db.Snapshot()
				defer snap.Close()
				return dumpDB(t, snap)
			}
			rows, want := db.TotalRows(), snapshotRows()
			for _, w := range []struct {
				name string
				fn   func() error
			}{
				{"InsertRow", func() error {
					_, err := txn.InsertRow("publisher", []Value{String_("E01"), String_("Row Pub")})
					return err
				}},
				{"Insert", func() error {
					_, err := txn.Insert("publisher", map[string]Value{"pubid": String_("E02"), "pubname": String_("Map Pub")})
					return err
				}},
				{"Delete", func() error {
					_, err := txn.Delete("book", ids[0])
					return err
				}},
				{"UpdateRow", func() error {
					return txn.UpdateRow("book", ids[0], map[string]Value{"price": Float_(1)})
				}},
			} {
				if err := w.fn(); err == nil {
					t.Errorf("%s after %s: no error", w.name, finish.name)
				}
				if got := db.TotalRows(); got != rows {
					t.Errorf("%s after %s: TotalRows = %d, want %d", w.name, finish.name, got, rows)
				}
				if got := snapshotRows(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s after %s: a fresh snapshot reads\n%v\nwant\n%v", w.name, finish.name, got, want)
				}
			}
		})
	}
}

func TestValueCompareAndCoerce(t *testing.T) {
	cases := []struct {
		a, b Value
		op   CompareOp
		want bool
	}{
		{Int_(1), Float_(1.0), OpEQ, true},
		{Int_(2), Float_(1.5), OpGT, true},
		{String_("abc"), String_("abd"), OpLT, true},
		{Null(), Int_(1), OpEQ, false},
		{Int_(1), Null(), OpNE, false},
		{String_("a"), Int_(1), OpEQ, false},
		{Float_(49.99), Float_(50), OpLT, true},
	}
	for i, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("case %d: %v %v %v = %v, want %v", i, c.a, c.op, c.b, got, c.want)
		}
	}
	if v, err := String_("42").CoerceTo(TypeInt); err != nil || v.Int != 42 {
		t.Errorf("coerce: %v %v", v, err)
	}
	if _, err := String_("abc").CoerceTo(TypeFloat); err == nil {
		t.Error("coercing 'abc' to DOUBLE should fail")
	}
	if v, err := Null().CoerceTo(TypeInt); err != nil || !v.IsNull() {
		t.Errorf("NULL coercion: %v %v", v, err)
	}
}

func TestCompareOpAlgebra(t *testing.T) {
	ops := []CompareOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	for _, op := range ops {
		if got := op.Negate().Negate(); got != op {
			t.Errorf("double negate of %v = %v", op, got)
		}
		if got := op.Flip().Flip(); got != op {
			t.Errorf("double flip of %v = %v", op, got)
		}
	}
}

func TestExtend(t *testing.T) {
	s := bookSchema(t, DeleteCascade, DeleteCascade)
	ext := s.Extend("publisher")
	for _, want := range []string{"publisher", "book", "review"} {
		if !ext[want] {
			t.Errorf("extend(publisher) missing %s", want)
		}
	}
	ext = s.Extend("review")
	if len(ext) != 1 || !ext["review"] {
		t.Errorf("extend(review) = %v, want {review}", ext)
	}
}

// Property: compare is antisymmetric and Negate complements Apply for
// non-NULL comparable values.
func TestQuickCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int_(a), Int_(b)
		c1, err1 := va.Compare(vb)
		c2, err2 := vb.Compare(va)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		for _, op := range []CompareOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE} {
			if op.Apply(va, vb) == op.Negate().Apply(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNumbersCompareExactly: integers compare as int64 and an integer
// against a float without rounding, so two integers a float64 cannot
// tell apart (past 2^53) stay apart under Equal, Compare and OpEQ, and
// the scan path and an exact index agree on them.
func TestNumbersCompareExactly(t *testing.T) {
	const big = 1 << 53
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Int_(big), Int_(big + 1), -1},
		{Int_(math.MaxInt64), Int_(math.MaxInt64 - 1), 1},
		{Int_(big + 1), Float_(big), 1},
		{Float_(big), Int_(big + 1), -1},
		{Int_(big), Float_(big), 0},
		{Int_(math.MaxInt64), Float_(1 << 63), -1},
		{Int_(math.MinInt64), Float_(-(1 << 63)), 0},
		{Int_(math.MinInt64), Float_(-1e300), 1},
		{Int_(2), Float_(2.5), -1},
		{Int_(-2), Float_(-2.5), 1},
		{Int_(3), Float_(3), 0},
		{Float_(0.5), Float_(0.25), 1},
	} {
		got, err := c.a.Compare(c.b)
		if err != nil || got != c.want {
			t.Errorf("%v.Compare(%v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
		if eq := c.a.Equal(c.b); eq != (c.want == 0) || OpEQ.Apply(c.a, c.b) != eq || OpNE.Apply(c.a, c.b) == eq {
			t.Errorf("%v = %v: Equal %v, want %v", c.a, c.b, eq, c.want == 0)
		}
	}
	if nan := Float_(math.NaN()); Int_(0).Equal(nan) || nan.Equal(Int_(0)) || nan.Equal(nan) {
		t.Error("NaN equals something")
	}

	db := NewDatabase(walSchema(t))
	for id, v := range []int64{big, big + 1} {
		mustInsertParent(t, db, v, fmt.Sprint(id))
	}
	for _, probe := range []Value{Int_(big + 1), Float_(big)} {
		want := Int_(big)
		if probe.Kind == KindInt {
			want = probe
		}
		ids, err := db.LookupEqual("parent", []string{"id"}, []Value{probe})
		var scanned []RowID
		db.Scan("parent", func(r *Row) bool {
			if OpEQ.Apply(r.Values[0], probe) {
				scanned = append(scanned, r.ID)
			}
			return true
		})
		if err != nil || len(ids) != 1 || !slices.Equal(ids, scanned) {
			t.Fatalf("probe %v: index %v (%v), scan %v; want one row, the same", probe, ids, err, scanned)
		}
		if row, _ := db.Get("parent", ids[0]); !row.Values[0].Equal(want) {
			t.Fatalf("probe %v found %v", probe, row.Values[0])
		}
	}
}

// Property: EncodeKey is injective across string/number kinds for
// representative values.
func TestQuickEncodeKeyInjective(t *testing.T) {
	f := func(i int64, s string) bool {
		vi, vs := Int_(i), String_(s)
		return vi.EncodeKey() != vs.EncodeKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: insert then delete leaves the table at its prior cardinality
// and the index finds nothing.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	db := newBookDB(t)
	f := func(suffix uint16, price float64) bool {
		if price <= 0 || price != price { // respect CHECK, skip NaN
			price = 1.5
		}
		id := "Q" + Int_(int64(suffix)).String()
		before := db.RowCount("book")
		tx := db.Begin()
		rid, err := tx.Insert("book", map[string]Value{
			"bookid": String_(id), "title": String_("quick"), "pubid": String_("A01"), "price": Float_(price),
		})
		if err != nil {
			tx.Rollback()
			// Duplicate suffix collisions are fine; anything else is not.
			return errors.Is(err, ErrPrimaryKey)
		}
		if tx.Commit() != nil {
			return false
		}
		tx = db.Begin()
		if _, err := tx.Delete("book", rid); err != nil || tx.Commit() != nil {
			return false
		}
		got, _ := db.LookupEqual("book", []string{"bookid"}, []Value{String_(id)})
		return db.RowCount("book") == before && len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rollback after a random batch of inserts restores cardinality.
func TestQuickRollbackRestoresCardinality(t *testing.T) {
	db := newBookDB(t)
	f := func(n uint8) bool {
		before := db.TotalRows()
		txn := db.Begin()
		for i := 0; i < int(n%16); i++ {
			txn.Insert("publisher", map[string]Value{
				"pubid":   String_("QP" + Int_(int64(i)).String()),
				"pubname": String_("Quick Pub " + Int_(int64(i)).String()),
			})
		}
		if err := txn.Rollback(); err != nil {
			return false
		}
		return db.TotalRows() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (op CompareOp) Negate() CompareOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	default:
		return op
	}
}
