package tpch

import (
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/xqparse"
)

func TestSchemaTopology(t *testing.T) {
	s, err := Schema()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tables()); got != 5 {
		t.Fatalf("tables = %d", got)
	}
	// FK chain region <- nation <- customer <- orders <- lineitem.
	ext := s.Extend("region")
	for _, r := range Relations {
		if !ext[r] {
			t.Errorf("extend(region) missing %s", r)
		}
	}
	if got := len(s.Extend("lineitem")); got != 1 {
		t.Errorf("extend(lineitem) = %d relations", got)
	}
}

func TestGenerateCardinalities(t *testing.T) {
	db, err := NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := RowsForMB(1)
	checks := map[string]int{
		"region": rows.Regions, "nation": rows.Nations,
		"customer": rows.Customers, "orders": rows.Orders,
	}
	for table, want := range checks {
		if got := db.RowCount(table); got != want {
			t.Errorf("%s = %d rows, want %d", table, got, want)
		}
	}
	if got := db.RowCount("lineitem"); got < rows.Orders {
		t.Errorf("lineitem = %d rows, want >= %d", got, rows.Orders)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	customer := func(db *relational.Database) *relational.Row {
		ids, _ := db.LookupEqual("customer", []string{"c_custkey"}, []relational.Value{relational.Int_(3)})
		row, err := db.Get("customer", ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	va, vb := customer(a), customer(b)
	def, _ := a.Schema().Table("customer")
	acctbal, _ := def.ColumnIndex("c_acctbal")
	comment, _ := def.ColumnIndex("c_comment")
	if va.Values[acctbal] != vb.Values[acctbal] || va.Values[comment] != vb.Values[comment] {
		t.Error("generator is not deterministic")
	}
}

func TestCascadeChain(t *testing.T) {
	db, err := NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	before := db.TotalRows()
	ids, _ := db.LookupEqual("region", []string{"r_regionkey"}, []relational.Value{relational.Int_(0)})
	txn := db.Begin()
	n, err := txn.Delete("region", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n < before/10 {
		t.Errorf("cascade from region deleted only %d of %d rows", n, before)
	}
}

func TestViewQueriesParse(t *testing.T) {
	for name, q := range map[string]string{
		"Vsuccess":       VsuccessQuery,
		"Vbush":          VbushQuery,
		"Vfail-region":   VfailQuery("region"),
		"Vfail-nation":   VfailQuery("nation"),
		"Vfail-customer": VfailQuery("customer"),
		"Vfail-orders":   VfailQuery("orders"),
		"Vfail-lineitem": VfailQuery("lineitem"),
	} {
		v, err := xqparse.ParseViewQuery(q)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(v.RootTag, "V") {
			t.Errorf("%s root = %s", name, v.RootTag)
		}
	}
}

func TestUpdateBuildersParse(t *testing.T) {
	for name, u := range map[string]string{
		"delete-region":   DeleteElementUpdate("region", 0),
		"delete-lineitem": DeleteElementUpdate("lineitem", 5),
		"insert-lineitem": InsertLineitemUpdate(10, 99),
		"insert-bush":     InsertOrderlineUpdateBush(1, 999999, 1),
		"delete-lines":    DeleteLineitemsOfOrder(10),
	} {
		if _, err := xqparse.ParseUpdate(u); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestElementPath(t *testing.T) {
	if got := ElementPath("orders"); len(got) != 4 || got[3] != "order" {
		t.Errorf("path(orders) = %v", got)
	}
	if got := ElementPath("region"); len(got) != 1 {
		t.Errorf("path(region) = %v", got)
	}
	if ElementPath("nosuch") != nil {
		t.Error("bogus relation should have nil path")
	}
}
