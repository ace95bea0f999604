package bookdb

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/xqparse"
)

func TestSchemaShape(t *testing.T) {
	s, err := Schema(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	book, ok := s.Table("book")
	if !ok {
		t.Fatal("book table missing")
	}
	if !book.IsNotNullColumn("title") || !book.IsNotNullColumn("bookid") {
		t.Error("NOT NULL columns wrong")
	}
	price, _ := book.ColumnNamed("price")
	if len(price.Checks) != 1 || price.Checks[0].Holds(relational.Float_(0)) {
		t.Errorf("price check = %v", price.Checks)
	}
	pub, _ := s.Table("publisher")
	name, _ := pub.ColumnNamed("pubname")
	if !name.Unique || !name.NotNull {
		t.Error("pubname must be UNIQUE NOT NULL (Fig. 1)")
	}
	review, _ := s.Table("review")
	if len(review.PrimaryKey) != 2 {
		t.Errorf("review PK = %v, want composite", review.PrimaryKey)
	}
}

func TestSampleData(t *testing.T) {
	db, err := NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	if db.RowCount("publisher") != 3 || db.RowCount("book") != 3 || db.RowCount("review") != 2 {
		t.Fatalf("row counts: pub=%d book=%d review=%d",
			db.RowCount("publisher"), db.RowCount("book"), db.RowCount("review"))
	}
	ids, _ := db.LookupEqual("book", []string{"bookid"}, []relational.Value{relational.String_("98002")})
	row, err := db.Get("book", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	def, _ := db.Schema().Table("book")
	year, _ := def.ColumnIndex("year")
	price, _ := def.ColumnIndex("price")
	if row.Values[year].Int != 1985 || row.Values[price].Float != 45.00 {
		t.Errorf("book 98002 = %v", row.Values)
	}
}

func TestViewQueryParses(t *testing.T) {
	v, err := xqparse.ParseViewQuery(ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if v.RootTag != "BookView" || len(v.Relations()) != 3 {
		t.Errorf("root=%s rels=%v", v.RootTag, v.Relations())
	}
}

func TestAllUpdatesParse(t *testing.T) {
	updates := AllUpdates()
	if len(updates) != 13 {
		t.Fatalf("updates = %d, want 13", len(updates))
	}
	for _, u := range updates {
		if _, err := xqparse.ParseUpdate(u.Text); err != nil {
			t.Errorf("%s: %v", u.Name, err)
		}
	}
}

func TestEveryPolicyBuilds(t *testing.T) {
	for _, p := range []relational.DeletePolicy{
		relational.DeleteCascade, relational.DeleteSetNull, relational.DeleteRestrict,
	} {
		if _, err := NewDatabase(p); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}
