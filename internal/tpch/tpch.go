// Package tpch provides the TPC-H-like substrate the paper's evaluation
// runs on (Section 7.2): the five-relation REGION / NATION / CUSTOMER /
// ORDERS / LINEITEM schema with its key and foreign-key topology, a
// deterministic synthetic data generator parameterized by a "database
// size" knob, and the four experiment views — Vsuccess, Vfail, Vlinear
// and Vbush.
//
// Substitution note: the official dbgen tool and its data distributions
// are not required by any experiment; only the FK chain, the relative
// cardinalities and the indexed keys matter, all of which the generator
// reproduces. The paper's "DBsize (Mb)" axis maps to a row-count scale
// (see Rows).
package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/relational"
)

// Relations lists the five relations in FK order (referenced first).
var Relations = []string{"region", "nation", "customer", "orders", "lineitem"}

// Schema builds the five-relation TPC-H subset with CASCADE deletes
// (the paper's pre-selected update policy).
func Schema() (*relational.Schema, error) {
	region, err := relational.NewTableDef("region", []relational.Column{
		{Name: "r_regionkey", Type: relational.TypeInt},
		{Name: "r_name", Type: relational.TypeString, NotNull: true},
		{Name: "r_comment", Type: relational.TypeString},
	}, []string{"r_regionkey"}, nil)
	if err != nil {
		return nil, err
	}
	nation, err := relational.NewTableDef("nation", []relational.Column{
		{Name: "n_nationkey", Type: relational.TypeInt},
		{Name: "n_name", Type: relational.TypeString, NotNull: true},
		{Name: "n_regionkey", Type: relational.TypeInt, NotNull: true},
		{Name: "n_comment", Type: relational.TypeString},
	}, []string{"n_nationkey"}, []relational.ForeignKey{{
		Name: "nation_region_fk", Columns: []string{"n_regionkey"},
		RefTable: "region", RefColumns: []string{"r_regionkey"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	customer, err := relational.NewTableDef("customer", []relational.Column{
		{Name: "c_custkey", Type: relational.TypeInt},
		{Name: "c_name", Type: relational.TypeString, NotNull: true},
		{Name: "c_nationkey", Type: relational.TypeInt, NotNull: true},
		{Name: "c_acctbal", Type: relational.TypeFloat},
		{Name: "c_comment", Type: relational.TypeString},
	}, []string{"c_custkey"}, []relational.ForeignKey{{
		Name: "customer_nation_fk", Columns: []string{"c_nationkey"},
		RefTable: "nation", RefColumns: []string{"n_nationkey"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	orders, err := relational.NewTableDef("orders", []relational.Column{
		{Name: "o_orderkey", Type: relational.TypeInt},
		{Name: "o_custkey", Type: relational.TypeInt, NotNull: true},
		{Name: "o_totalprice", Type: relational.TypeFloat,
			Checks: []relational.CheckPredicate{{Op: relational.OpGT, Operand: relational.Float_(0)}}},
		{Name: "o_orderdate", Type: relational.TypeInt},
		{Name: "o_comment", Type: relational.TypeString},
	}, []string{"o_orderkey"}, []relational.ForeignKey{{
		Name: "orders_customer_fk", Columns: []string{"o_custkey"},
		RefTable: "customer", RefColumns: []string{"c_custkey"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	lineitem, err := relational.NewTableDef("lineitem", []relational.Column{
		{Name: "l_orderkey", Type: relational.TypeInt},
		{Name: "l_linenumber", Type: relational.TypeInt},
		{Name: "l_partkey", Type: relational.TypeInt},
		{Name: "l_quantity", Type: relational.TypeFloat,
			Checks: []relational.CheckPredicate{{Op: relational.OpGT, Operand: relational.Float_(0)}}},
		{Name: "l_extendedprice", Type: relational.TypeFloat},
		{Name: "l_comment", Type: relational.TypeString},
	}, []string{"l_orderkey", "l_linenumber"}, []relational.ForeignKey{{
		Name: "lineitem_orders_fk", Columns: []string{"l_orderkey"},
		RefTable: "orders", RefColumns: []string{"o_orderkey"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(region, nation, customer, orders, lineitem)
}

// Rows maps the paper's "DBsize (Mb)" axis to per-relation row counts,
// keeping TPC-H's relative cardinalities (fixed regions/nations, orders
// ≈ 5× customers, lineitems ≈ 3× orders).
type Rows struct {
	Regions   int
	Nations   int
	Customers int
	Orders    int
	Lineitems int
}

// RowsForMB sizes the dataset for a nominal database size in MB.
func RowsForMB(mb int) Rows {
	if mb < 1 {
		mb = 1
	}
	customers := 12 * mb
	orders := 5 * customers
	return Rows{
		Regions:   5,
		Nations:   25,
		Customers: customers,
		Orders:    orders,
		Lineitems: 3 * orders,
	}
}

// Generate emits the dataset deterministically (seeded by the nominal
// size) into the sink, relation by relation in FK order, so every row's
// parent precedes it and every FK is valid by construction. Each row is
// built in declared column order in one reused buffer.
func Generate(sink relational.Inserter, rows Rows) error {
	rng := rand.New(rand.NewSource(int64(rows.Customers)*31 + 7))
	var buf [6]relational.Value // the widest relation's columns
	regionNames := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for i := 0; i < rows.Regions; i++ {
		name := fmt.Sprintf("REGION-%d", i)
		if i < len(regionNames) {
			name = regionNames[i]
		}
		// r_regionkey, r_name, r_comment
		row := append(buf[:0], relational.Int_(int64(i)), relational.String_(name), relational.String_(comment(rng)))
		if _, err := sink.InsertRow("region", row); err != nil {
			return fmt.Errorf("tpch: region %d: %w", i, err)
		}
	}
	for i := 0; i < rows.Nations; i++ {
		// n_nationkey, n_name, n_regionkey, n_comment
		row := append(buf[:0],
			relational.Int_(int64(i)),
			relational.String_(fmt.Sprintf("NATION-%02d", i)),
			relational.Int_(int64(i%rows.Regions)),
			relational.String_(comment(rng)))
		if _, err := sink.InsertRow("nation", row); err != nil {
			return fmt.Errorf("tpch: nation %d: %w", i, err)
		}
	}
	for i := 0; i < rows.Customers; i++ {
		// c_custkey, c_name, c_nationkey, c_acctbal, c_comment
		row := append(buf[:0],
			relational.Int_(int64(i)),
			relational.String_(fmt.Sprintf("Customer#%09d", i)),
			relational.Int_(int64(i%rows.Nations)),
			relational.Float_(float64(rng.Intn(1000000))/100),
			relational.String_(comment(rng)))
		if _, err := sink.InsertRow("customer", row); err != nil {
			return fmt.Errorf("tpch: customer %d: %w", i, err)
		}
	}
	for i := 0; i < rows.Orders; i++ {
		// o_orderkey, o_custkey, o_totalprice, o_orderdate, o_comment
		row := append(buf[:0],
			relational.Int_(int64(i)),
			relational.Int_(int64(i%rows.Customers)),
			relational.Float_(float64(1+rng.Intn(5000000))/100),
			relational.Int_(int64(19920101+rng.Intn(60000))),
			relational.String_(comment(rng)))
		if _, err := sink.InsertRow("orders", row); err != nil {
			return fmt.Errorf("tpch: order %d: %w", i, err)
		}
	}
	perOrder := rows.Lineitems / rows.Orders
	if perOrder < 1 {
		perOrder = 1
	}
	for o := 0; o < rows.Orders; o++ {
		for l := 0; l < perOrder; l++ {
			// l_orderkey, l_linenumber, l_partkey, l_quantity,
			// l_extendedprice, l_comment
			row := append(buf[:0],
				relational.Int_(int64(o)),
				relational.Int_(int64(l+1)),
				relational.Int_(int64(rng.Intn(200000))),
				relational.Float_(float64(1+rng.Intn(50))),
				relational.Float_(float64(1+rng.Intn(10000000))/100),
				relational.String_(comment(rng)))
			if _, err := sink.InsertRow("lineitem", row); err != nil {
				return fmt.Errorf("tpch: lineitem %d/%d: %w", o, l, err)
			}
		}
	}
	return nil
}

// NewDatabaseMB builds and populates a database sized for the nominal
// MB value.
func NewDatabaseMB(mb int) (*relational.Database, error) {
	schema, err := Schema()
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	_, err = db.Load(func(sink relational.Inserter) error { return Generate(sink, RowsForMB(mb)) })
	return db, err
}

var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "quickly", "bold",
	"requests", "haggle", "furiously", "ironic", "accounts", "pending",
}

// comments holds every two-word comment, the first word's index major,
// so a row's comment is two draws and no allocation.
var comments = func() []string {
	out := make([]string, 0, len(commentWords)*len(commentWords))
	for _, a := range commentWords {
		for _, b := range commentWords {
			out = append(out, a+" "+b)
		}
	}
	return out
}()

func comment(rng *rand.Rand) string {
	a := rng.Intn(len(commentWords))
	b := rng.Intn(len(commentWords))
	return comments[a*len(commentWords)+b]
}

// VsuccessQuery is the Section 7.2 view where the five relations are
// nested following the key and foreign key constraints: updates over
// any internal node are unconditionally translatable.
const VsuccessQuery = `
<Vsuccess>
FOR $r IN document("default.xml")/region/row
RETURN {
  <region>
    $r/r_regionkey, $r/r_name,
    FOR $n IN document("default.xml")/nation/row
    WHERE $n/n_regionkey = $r/r_regionkey
    RETURN {
      <nation>
        $n/n_nationkey, $n/n_name,
        FOR $c IN document("default.xml")/customer/row
        WHERE $c/c_nationkey = $n/n_nationkey
        RETURN {
          <customer>
            $c/c_custkey, $c/c_name, $c/c_acctbal,
            FOR $o IN document("default.xml")/orders/row
            WHERE $o/o_custkey = $c/c_custkey
            RETURN {
              <order>
                $o/o_orderkey, $o/o_totalprice,
                FOR $l IN document("default.xml")/lineitem/row
                WHERE $l/l_orderkey = $o/o_orderkey
                RETURN {
                  <lineitem>
                    $l/l_orderkey, $l/l_linenumber, $l/l_quantity
                  </lineitem>
                }
              </order>
            }
          </customer>
        }
      </nation>
    }
  </region>
}
</Vsuccess>`

// VfailQuery builds the Section 7.2 failure view: the linear nesting of
// Vsuccess plus the given relation republished under the root, which
// makes deleting that relation's element untranslatable (its extend set
// intersects the republished node's context).
func VfailQuery(relation string) string {
	republish := map[string]string{
		"region":   `<regioninfo> $rr/r_regionkey, $rr/r_name </regioninfo>`,
		"nation":   `<nationinfo> $rr/n_nationkey, $rr/n_name </nationinfo>`,
		"customer": `<customerinfo> $rr/c_custkey, $rr/c_name </customerinfo>`,
		"orders":   `<orderinfo> $rr/o_orderkey, $rr/o_totalprice </orderinfo>`,
		"lineitem": `<lineiteminfo> $rr/l_orderkey, $rr/l_linenumber </lineiteminfo>`,
	}
	body := republish[relation]
	if body == "" {
		body = republish["region"]
	}
	inner := VsuccessQuery
	inner = inner[len("\n<Vsuccess>") : len(inner)-len("</Vsuccess>")]
	return "<Vfail>" + inner + `,
FOR $rr IN document("default.xml")/` + relation + `/row
RETURN { ` + body + ` }
</Vfail>`
}

// VlinearQuery is the linear-join view of the Fig. 15/17 experiments:
// the same FK-chain nesting as Vsuccess (the paper's "five relations
// joined linearly").
const VlinearQuery = VsuccessQuery

// VbushQuery joins the relations "evenly" (Fig. 16): region, nation and
// customer joined in one block, orders and lineitem in a nested block —
// a bushy rather than linear join shape.
const VbushQuery = `
<Vbush>
FOR $r IN document("default.xml")/region/row,
    $n IN document("default.xml")/nation/row,
    $c IN document("default.xml")/customer/row
WHERE ($n/n_regionkey = $r/r_regionkey) AND ($c/c_nationkey = $n/n_nationkey)
RETURN {
  <customer>
    $c/c_custkey, $c/c_name, $r/r_name, $n/n_name,
    FOR $o IN document("default.xml")/orders/row,
        $l IN document("default.xml")/lineitem/row
    WHERE ($o/o_custkey = $c/c_custkey) AND ($l/l_orderkey = $o/o_orderkey)
    RETURN {
      <orderline>
        $o/o_orderkey, $o/o_totalprice, $l/l_linenumber, $l/l_quantity
      </orderline>
    }
  </customer>
}
</Vbush>`

// ElementName maps a relation to its element tag in Vsuccess/Vlinear.
func ElementName(relation string) string {
	switch relation {
	case "region":
		return "region"
	case "nation":
		return "nation"
	case "customer":
		return "customer"
	case "orders":
		return "order"
	case "lineitem":
		return "lineitem"
	}
	return relation
}

// ElementPath returns the path from the view root down to the
// relation's element in Vsuccess/Vlinear.
func ElementPath(relation string) []string {
	full := []string{"region", "nation", "customer", "order", "lineitem"}
	idx := map[string]int{"region": 0, "nation": 1, "customer": 2, "orders": 3, "lineitem": 4}
	i, ok := idx[relation]
	if !ok {
		return nil
	}
	return full[:i+1]
}

// DeleteElementUpdate builds the update that deletes one element of the
// given relation from Vsuccess/Vfail/Vlinear, selecting the instance by
// its key value.
func DeleteElementUpdate(relation string, key int64) string {
	path := ElementPath(relation)
	keyCol := map[string]string{
		"region": "r_regionkey", "nation": "n_nationkey", "customer": "c_custkey",
		"orders": "o_orderkey", "lineitem": "l_orderkey",
	}[relation]
	pathExpr := ""
	for _, p := range path {
		pathExpr += "/" + p
	}
	return fmt.Sprintf(`
FOR $t IN document("view.xml")%s
WHERE $t/%s/text() = "%d"
UPDATE $t { DELETE $t }`, pathExpr, keyCol, key)
}

// InsertLineitemUpdate builds the Fig. 15 update: insert a new lineitem
// into the order with the given key.
func InsertLineitemUpdate(orderKey int64, lineNumber int64) string {
	return fmt.Sprintf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "%d"
UPDATE $o {
  INSERT
    <lineitem>
      <l_orderkey>%d</l_orderkey>
      <l_linenumber>%d</l_linenumber>
      <l_quantity>7</l_quantity>
    </lineitem>
}`, orderKey, orderKey, lineNumber)
}

// InsertOrderlineUpdateBush is the Vbush counterpart: insert an
// orderline under a customer.
func InsertOrderlineUpdateBush(custKey, orderKey, lineNumber int64) string {
	return fmt.Sprintf(`
FOR $c IN document("view.xml")/customer
WHERE $c/c_custkey/text() = "%d"
UPDATE $c {
  INSERT
    <orderline>
      <o_orderkey>%d</o_orderkey>
      <o_totalprice>100.00</o_totalprice>
      <l_linenumber>%d</l_linenumber>
      <l_quantity>3</l_quantity>
    </orderline>
}`, custKey, orderKey, lineNumber)
}

// DeleteLineitemsOfOrder builds the Fig. 17 failed-case update: delete
// the lineitems of a given order in Vlinear.
func DeleteLineitemsOfOrder(orderKey int64) string {
	return fmt.Sprintf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "%d"
UPDATE $o { DELETE $o/lineitem }`, orderKey)
}
