package ufilter

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/psd"
	"repro/internal/relational"
	"repro/internal/tpch"
	"repro/internal/xqparse"
)

// Tests of the template-keyed plan cache: one resident plan serves every
// instance of a template, and whatever depends on an instance's values
// is derived when the instance is bound.

func newExec(t testing.TB, db relational.Engine, viewQuery string) *Filter {
	t.Helper()
	e, err := New(viewQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTPCHExec(t testing.TB) *Filter {
	t.Helper()
	db, err := tpch.NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	return newExec(t, db, tpch.VsuccessQuery)
}

// keylessBookView publishes BookView's publishers by name only: an
// inserted book cannot supply the key of the shared publisher relation.
var keylessBookView = strings.Replace(bookdb.ViewQuery, "$publisher/pubid, $publisher/pubname", "$publisher/pubname", 2)

func newKeylessBookExec(t testing.TB) *Filter {
	t.Helper()
	db, err := bookdb.NewDatabase(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	return newExec(t, db, keylessBookView)
}

func newPSDExec(t testing.TB) *Filter {
	t.Helper()
	db, err := psd.NewDatabase(40)
	if err != nil {
		t.Fatal(err)
	}
	return newExec(t, db, psd.ViewQuery)
}

// diffTemplate is one update template with instances that differ in
// values only: instance 0 is valid, the others are valid or bad in the
// ways the comments beside them say.
type diffTemplate struct {
	name      string
	newExec   func(testing.TB) *Filter
	instances []string
}

func instancesOf(format string, tuples ...[]interface{}) []string {
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		out[i] = fmt.Sprintf(format, tu...)
	}
	return out
}

func v(vals ...interface{}) []interface{} { return vals }

func diffTemplates() []diffTemplate {
	book := newBookExec
	return []diffTemplate{
		{"book/insert-review", book, instancesOf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "%s"
UPDATE $book { INSERT <review><reviewid>%s</reviewid><comment>%s</comment></review> }`,
			v("Data on the Web", "701", "fine"),
			v("Data on the Web", "702", ""),           // empty text on a nullable leaf
			v("Data on the Web", "", "no id"),         // empty text on a NOT NULL (key) leaf
			v("TCP/IP Illustrated", "001", "again"),   // duplicate primary key
			v("TCP/IP Illustrated", "003", "third"),   // valid
			v("No Such Book", "703", "orphan"),        // context not in the view
			v("Programming in Unix", "704", "hidden"), // book outside the view
		)},
		{"book/insert-book", book, instancesOf(`
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT
    <book>
      <bookid>%s</bookid>
      <title>%s</title>
      <price>%s</price>
      <publisher>
        <pubid>%s</pubid>
        <pubname>%s</pubname>
      </publisher>
    </book>
}`,
			v("97001", "Operating Systems", "20.00", "A01", "McGraw-Hill Inc."),
			v("97002", "Free Lunch", "0.00", "A01", "McGraw-Hill Inc."),             // CHECK-violating
			v("97003", "Luxury", "75.00", "A01", "McGraw-Hill Inc."),                // outside the view's price range
			v("97004", "Priceless", "a lot", "A01", "McGraw-Hill Inc."),             // out of domain
			v("97005", "", "20.00", "A01", "McGraw-Hill Inc."),                      // empty text on a NOT NULL leaf
			v("97006", "Unpriced", "", "B01", "Prentice-Hall Inc."),                 // empty text on a leaf a view predicate reads
			v("97007", "Orphan", "20.00", "Z99", "No Such Press"),                   // missing shared part
			v("97008", "Misnamed", "20.00", "A02", "Somebody Else Inc."),            // inconsistent shared part
			v("97009", "Keyless", "20.00", "", "McGraw-Hill Inc."),                  // empty shared-part key
			v("98001", "TCP/IP Illustrated II", "20.00", "A01", "McGraw-Hill Inc."), // duplicate primary key
			v("97010", "Networks", "30.00", "B01", "Prentice-Hall Inc."),            // valid
		)},
		{"book-keyless/insert-book", newKeylessBookExec, instancesOf(`
FOR $root IN document("BookView.xml")
UPDATE $root {
  INSERT <book><bookid>%s</bookid><title>%s</title><price>%s</price><publisher><pubname>%s</pubname></publisher></book>
}`,
			v("97001", "Operating Systems", "20.00", "McGraw-Hill Inc."), // shared-part key not supplied: Apply alone rejects
			v("97002", "Free Lunch", "0.00", "McGraw-Hill Inc."),         // CHECK-violating
		)},
		{"book/replace-price", book, instancesOf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "%s"
UPDATE $book { REPLACE $book/price WITH <price>%s</price> }`,
			v("98001", "21.00"),
			v("98001", "0"),     // CHECK-violating
			v("98001", "cheap"), // out of domain
			v("98003", ""),      // empty text on a leaf the view's price < 50 reads: NULL would drop the book
			v("98003", "99.00"), // outside the view's price range
			v("00000", "21.00"), // context not in the view
			v("98001", "12.50"), // valid
		)},
		{"book/replace-review", book, instancesOf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/bookid/text() = "%s"
UPDATE $book { REPLACE $book/review WITH <review><reviewid>%s</reviewid><comment>%s</comment></review> }`,
			v("98001", "009", "rewritten"),
			v("98001", "", "no id"),
			v("98003", "010", "first"),
			v("00000", "011", "nowhere"),
		)},
		{"book/delete-over-price", book, instancesOf(`
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > "%s"
UPDATE $root { DELETE $book }`,
			v("40.00"),
			v("55.00"), // no overlap with the view
			v("steep"), // literal out of domain
			v("47.00"),
		)},
		{"book/delete-reviews", book, instancesOf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "%s"
UPDATE $book { DELETE $book/review }`,
			v("TCP/IP Illustrated"),
			v("No Such Book"),
			v("Data on the Web"),
		)},
		{"book/unresolvable", book, instancesOf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/price > "%s" AND $book/isbn/text() = "%s"
UPDATE $book { DELETE $book/review }`,
			v("40.00", "x"), // fails at the unknown path
			v("steep", "y"), // fails earlier, at the literal
		)},
		{"psd/insert-citation", newPSDExec, instancesOf(`
FOR $p IN document("ProteinView.xml")/protein
WHERE $p/pid/text() = "%s"
UPDATE $p { INSERT <citation><cid>%s</cid><title>%s</title></citation> }`,
			v("P00007", "C9", "A new result"),
			v("P00007", "C8", ""),            // empty text on a NOT NULL leaf
			v("P00007", "C0", "Seen before"), // duplicate primary key
			v("P00007", "", "No id"),
			v("P99999", "C1", "Nobody's"), // context not in the view
			v("P00012", "C7", "Another"),  // valid
		)},
		{"psd/insert-protein", newPSDExec, instancesOf(`
FOR $root IN document("ProteinView.xml")
UPDATE $root {
  INSERT
    <protein>
      <pid>%s</pid><name>%s</name><length>%s</length>
      <organism><oid>%s</oid><species>%s</species></organism>
    </protein>
}`,
			v("P90001", "new kinase", "300", "O1", "Homo sapiens"),
			v("P90002", "nothing", "0", "O1", "Homo sapiens"),         // CHECK-violating
			v("P90003", "stub", "50", "O1", "Homo sapiens"),           // outside the view's length range
			v("P90004", "long", "very", "O1", "Homo sapiens"),         // out of domain
			v("P90005", "", "300", "O1", "Homo sapiens"),              // empty text on a NOT NULL leaf
			v("P90006", "alien", "300", "O9", "Martian"),              // missing shared part
			v("P90007", "mislabeled", "300", "O2", "Homo sapiens"),    // inconsistent shared part
			v("P00007", "again", "300", "O1", "Homo sapiens"),         // duplicate primary key
			v("P90008", "second kinase", "400", "O2", "Mus musculus"), // valid
		)},
		{"psd/delete-citations", newPSDExec, instancesOf(`
FOR $p IN document("ProteinView.xml")/protein
WHERE $p/pid/text() = "%s"
UPDATE $p { DELETE $p/citation }`,
			v("P00007"), v("P99999"), v("P00011"), v("P00012"), // P00011 is outside the view
		)},
		{"tpch/insert-lineitem", newTPCHExec, instancesOf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "%s"
UPDATE $o {
  INSERT
    <lineitem>
      <l_orderkey>%s</l_orderkey>
      <l_linenumber>%s</l_linenumber>
      <l_quantity>%s</l_quantity>
    </lineitem>
}`,
			v("5", "5", "900", "7"), // tpch.InsertLineitemUpdate(5, 900)
			v("5", "5", "901", "0"), // the benchmark's invalidInsert: CHECK-violating
			v("5", "5", "902", "many"),
			v("5", "5", "903", ""),
			v("5", "5", "", "7"),
			v("5", "5", "900", "3"),  // duplicate primary key once the first is applied
			v("k5", "5", "904", "7"), // literal out of domain
			v("5", "six", "905", "7"),
			v("999999", "999999", "1", "7"), // context not in the view
			v("6", "6", "900", "2.5"),       // valid
		)},
		{"tpch/delete-lineitem", newTPCHExec, instancesOf(`
FOR $t IN document("view.xml")/region/nation/customer/order/lineitem
WHERE $t/l_orderkey/text() = "%s" AND $t/l_linenumber/text() = "%s"
UPDATE $t { DELETE $t }`,
			v("5", "1"), v("5", "x"), v("k17", "1"), v("999999", "1"), v("7", "1"),
		)},
		{"tpch/delete-lineitems-of-order", newTPCHExec, instancesOf(`
FOR $o IN document("view.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "%s"
UPDATE $o { DELETE $o/lineitem }`,
			v("5"), v("k17"), v("8"), // "k17" is the benchmark's badLiteralDelete
		)},
	}
}

// comparable renders what the cached path and the reference must agree
// on.
func comparable(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("accepted=%v at=%s outcome=%s conditions=%v reason=%q rows=%d\nsql=%q\nprobes=%q\nwarnings=%q",
		res.Accepted, res.RejectedAt, res.Outcome, res.Conditions, res.Reason, res.RowsAffected, res.SQL, res.Probes, res.Warnings)
}

// dumpTables renders every table's rows, sorted.
func dumpTables(t testing.TB, e *Filter) string {
	t.Helper()
	var b strings.Builder
	for _, def := range e.View.Schema.Tables() {
		table := def.Name
		var rows []string
		if err := e.Exec.DB.Scan(table, func(r *relational.Row) bool {
			rows = append(rows, fmt.Sprint(r.Values))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "%s: %v\n", table, rows)
	}
	return b.String()
}

// referenceOp runs one update through a throwaway plan compiled from the
// update itself, outside the executor's plan cache: what every cached
// path must match.
type referenceOp func(e *Filter, p *UpdatePlan, args []relational.Value) (*Result, error)

func referenceVerdict(_ *Filter, p *UpdatePlan, args []relational.Value) (*Result, error) {
	return p.Verdict, nil
}

func referenceCheckData(e *Filter, p *UpdatePlan, args []relational.Value) (*Result, error) {
	res, b, err := p.verdictArgs(args)
	if err != nil || !res.Accepted {
		return res, err
	}
	snap := e.Snapshot()
	defer snap.Close()
	return e.probeData(snap, p, b, res)
}

// runReference compiles text into its own plan and runs ref over it.
func runReference(e *Filter, text string, ref referenceOp) (*Result, error) {
	u, err := xqparse.ParseUpdate(text)
	if err != nil {
		return nil, err
	}
	p, err := e.Compile(u)
	if err != nil {
		return nil, err
	}
	return ref(e, p, p.BindArgs(u))
}

// TestTemplateDifferential: the cached executor — one plan per template,
// every instance bound to it — and a reference executor over the same
// data, which compiles each instance into its own throwaway plan, agree
// on every verdict, on the SQL and the probes, and on the resulting table
// contents, whichever instance of the template happened to be compiled
// first.
func TestTemplateDifferential(t *testing.T) {
	type op struct {
		name string
		run  func(e *Filter, texts []string) []string
		ref  referenceOp
	}
	each := func(f func(e *Filter, text string) (*Result, error)) func(*Filter, []string) []string {
		return func(e *Filter, texts []string) []string {
			out := make([]string, len(texts))
			for i, text := range texts {
				out[i] = comparable(f(e, text))
			}
			return out
		}
	}
	ops := []op{
		{"Check", each(func(e *Filter, text string) (*Result, error) {
			return e.Check(context.Background(), text)
		}), referenceVerdict},
		{"CheckDataAt", each(checkData), referenceCheckData},
		{"Apply", each(func(e *Filter, text string) (*Result, error) {
			return e.Apply(context.Background(), text)
		}), (*Filter).Execute},
		{"ApplyBatch", func(e *Filter, texts []string) []string {
			out := make([]string, len(texts))
			for i, br := range e.ApplyBatch(texts) {
				out[i] = comparable(br.Result, br.Err)
			}
			return out
		}, (*Filter).Execute},
	}
	for _, tpl := range diffTemplates() {
		for _, o := range ops {
			// Every instance takes a turn at being the one the plan is
			// compiled from: rotation k starts with instance k.
			for k := range tpl.instances {
				texts := append(append([]string(nil), tpl.instances[k:]...), tpl.instances[:k]...)
				cached, plain := tpl.newExec(t), tpl.newExec(t)
				got := o.run(cached, texts)
				for i, text := range texts {
					want := comparable(runReference(plain, text, o.ref))
					if got[i] != want {
						t.Errorf("%s %s, compiled from instance %d, instance %d:\ncached:    %s\nreference: %s",
							tpl.name, o.name, k, (k+i)%len(texts), got[i], want)
					}
				}
				if g, w := dumpTables(t, cached), dumpTables(t, plain); g != w {
					t.Errorf("%s %s, compiled from instance %d: table contents diverged\ncached:\n%s\nreference:\n%s",
						tpl.name, o.name, k, g, w)
				}
				if st := cached.CacheStats(); st.Plans != 1 || st.Misses != 1 {
					t.Errorf("%s %s: one template left %d plans after %d compiles", tpl.name, o.name, st.Plans, st.Misses)
				}
			}
		}
	}
}

// TestExecuteAppliesExemplarContent: Execute binds a literal tuple and
// applies the content of the update the plan was compiled from.
func TestExecuteAppliesExemplarContent(t *testing.T) {
	e := newTPCHExec(t)
	u, err := xqparse.ParseUpdate(tpch.InsertLineitemUpdate(5, 900))
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Slots) != 1 || len(p.ContentSlots) != 3 {
		t.Fatalf("plan has %d literal and %d content slots, want 1 and 3", len(p.Slots), len(p.ContentSlots))
	}
	res, err := e.Execute(p, p.BindArgs(u))
	if err != nil || !res.Accepted {
		t.Fatalf("execute: %v %+v", err, res)
	}
	want := "INSERT INTO lineitem (l_linenumber, l_orderkey, l_quantity) VALUES (900, 5, 7)"
	if !reflect.DeepEqual(res.SQL, []string{want}) {
		t.Errorf("SQL = %q, want %q", res.SQL, want)
	}
}

func deleteLineitemText(order, line int) string {
	return fmt.Sprintf(`
FOR $t IN document("view.xml")/region/nation/customer/order/lineitem
WHERE $t/l_orderkey/text() = "%d" AND $t/l_linenumber/text() = "%d"
UPDATE $t { DELETE $t }`, order, line)
}

// TestCacheBoundedByTemplates: fresh content, fresh literals and fresh
// texts leave the cache as large as the traffic has templates.
func TestCacheBoundedByTemplates(t *testing.T) {
	ops := 50000
	if testing.Short() {
		ops = 5000
	}
	e := newTPCHExec(t)
	orders := tpch.RowsForMB(1).Orders
	for i := 0; i < ops; i++ {
		order, line := i%orders, 1000+i
		var res *Result
		var err error
		switch i % 3 {
		case 0:
			res, err = e.Apply(context.Background(), tpch.InsertLineitemUpdate(int64(order), int64(line)))
		case 1:
			res, err = e.Apply(context.Background(), deleteLineitemText((i-1)%orders, line-1))
		default:
			text := tpch.DeleteLineitemsOfOrder(int64(1<<20 + i))
			res, err = e.Check(context.Background(), text)
			if err == nil && i%300 == 2 {
				res, err = e.Check(context.Background(), text)
			}
		}
		if err != nil || !res.Accepted {
			t.Fatalf("op %d: %v %+v", i, err, res)
		}
	}
	st := e.CacheStats()
	if st.Plans != 3 || st.TemplateEntries != 3 || st.Misses != 3 {
		t.Errorf("three templates left %d plans in %d template entries after %d compiles", st.Plans, st.TemplateEntries, st.Misses)
	}
}

// TestCachedApplyAllocs bounds the allocations of an apply that runs off
// a resident plan: parsing, binding, one probe, one insert, one commit.
// At the parent commit the same apply compiled a plan per instance and
// measured 287 allocations; this change measured 182.
func TestCachedApplyAllocs(t *testing.T) {
	e := newTPCHExec(t)
	const runs = 200
	texts := make([]string, runs+2)
	for i := range texts {
		texts[i] = tpch.InsertLineitemUpdate(int64(i%50), int64(1000+i))
	}
	next := 0
	apply := func() {
		res, err := e.Apply(context.Background(), texts[next])
		if err != nil || !res.Accepted {
			t.Fatalf("apply %d: %v %+v", next, err, res)
		}
		next++
	}
	apply() // compiles the template
	if n := testing.AllocsPerRun(runs, apply); n > 210 {
		t.Errorf("a cached-template Apply allocates %.0f times, want <= 210", n)
	}
	if st := e.CacheStats(); st.Misses != 1 {
		t.Errorf("%d compiles for one template", st.Misses)
	}
}

// TestConcurrentFirstCompile: goroutines meeting a template for the
// first time together compile it once; the rest bind against the
// resident plan. Run with -race.
func TestConcurrentFirstCompile(t *testing.T) {
	e := newTPCHExec(t)
	const workers, each = 8, 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				line := int64(2000 + w*each + i)
				res, err := e.Apply(context.Background(), tpch.InsertLineitemUpdate(int64(w), line))
				if err != nil || !res.Accepted {
					t.Errorf("worker %d insert %d: %v %+v", w, i, err, res)
					return
				}
				if res, err = e.Check(context.Background(), invalidQuantityInsert(int64(w), line)); err != nil || res.Accepted {
					t.Errorf("worker %d: quantity 0 passed Step 1: %v %+v", w, err, res)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := e.CacheStats(); st.Misses != 1 || st.Plans != 1 {
		t.Errorf("one template compiled %d times into %d plans", st.Misses, st.Plans)
	}
}

// invalidQuantityInsert is tpch.InsertLineitemUpdate with quantity 0:
// the same template, rejected by the CHECK on l_quantity.
func invalidQuantityInsert(order, line int64) string {
	return strings.Replace(tpch.InsertLineitemUpdate(order, line), "<l_quantity>7<", "<l_quantity>0<", 1)
}
