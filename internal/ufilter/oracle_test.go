package ufilter

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asg"
	"repro/internal/bookdb"
	"repro/internal/psd"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/tpch"
	"repro/internal/viewengine"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// The verdict oracle checks U-Filter's verdicts against the view itself,
// by brute force. For each generated update it builds a fresh database,
// materializes the view, runs the update through Apply, re-derives the
// view and compares it with expectedView — the view the update asks for
// — ignoring the order of sibling elements. Two outcomes matter:
//
//   - unsound: an accepted update whose view differs from the expected
//     one, or that Apply cannot execute. This is a bug, and the oracle
//     fails on it.
//   - precision gap: a Step 2 or Step 3 rejection whose blind
//     translation (BlindApply) diffs clean. STAR is conservative by
//     design (paper §5), so gaps are counted per view and per rule or
//     data check, against precisionGaps; the oracle fails if a count
//     grows.

// oracleView is one view the oracle runs over, with the database it is
// defined on.
type oracleView struct {
	name, query string
	newDB       func() (*relational.Database, error)
}

func bookDB(policy relational.DeletePolicy) func() (*relational.Database, error) {
	return func() (*relational.Database, error) { return bookdb.NewDatabase(policy) }
}

func tpchDB() (*relational.Database, error) { return tpch.NewDatabaseMB(1) }

func oracleViews() []oracleView {
	views := []oracleView{
		{"book-cascade", bookdb.ViewQuery, bookDB(relational.DeleteCascade)},
		{"book-setnull", bookdb.ViewQuery, bookDB(relational.DeleteSetNull)},
		{"book-restrict", bookdb.ViewQuery, bookDB(relational.DeleteRestrict)},
		{"book-keyless", keylessBookView, bookDB(relational.DeleteCascade)},
		{"protein", psd.ViewQuery, func() (*relational.Database, error) { return psd.NewDatabase(20) }},
		{"vsuccess", tpch.VsuccessQuery, tpchDB},
	}
	for _, rel := range tpch.Relations {
		views = append(views, oracleView{"vfail-" + rel, tpch.VfailQuery(rel), tpchDB})
	}
	return views
}

// exec builds a fresh database and an executor for the view over it.
func (v oracleView) exec(t testing.TB) *Filter {
	t.Helper()
	db, err := v.newDB()
	if err != nil {
		t.Fatal(err)
	}
	return newExec(t, db, v.query)
}

func materialize(t testing.TB, e *Filter) *xmltree.Node {
	t.Helper()
	doc, err := (&viewengine.Engine{Exec: e.Exec}).Materialize(e.View.Query)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// oracleCase is a view with the updates generated from it. Every fresh
// database of the view holds the same rows, so the view materialized
// once stands for the one each update starts from.
type oracleCase struct {
	view    oracleView
	before  *xmltree.Node
	updates []string
}

func newOracleCase(t testing.TB, v oracleView) *oracleCase {
	e := v.exec(t)
	before := materialize(t, e)
	return &oracleCase{view: v, before: before, updates: generateUpdates(e.View, before)}
}

// oracleFinding is what the oracle concluded about one update.
type oracleFinding struct {
	res *Result
	// unsound says why an accepted update is wrong; empty when it is not.
	unsound string
	// gap names the rule or data check behind a rejection whose blind
	// translation diffs clean; empty otherwise.
	gap string
}

// check runs one update on a fresh database and judges its verdict.
func (c *oracleCase) check(t testing.TB, text string) oracleFinding {
	t.Helper()
	e := c.view.exec(t)
	res, err := e.Apply(context.Background(), text)
	if err != nil {
		return oracleFinding{unsound: "apply failed: " + err.Error()}
	}
	f := oracleFinding{res: res}
	switch {
	case res.Accepted:
		u, err := xqparse.ParseUpdate(text)
		if err != nil {
			t.Fatalf("an accepted update does not parse: %v", err)
		}
		r, litErr, err := resolve(u, e.View)
		if litErr != nil || err != nil {
			t.Fatalf("an accepted update does not resolve: %v %v", litErr, err)
		}
		if want, got := expectedView(c.before, r), materialize(t, e); !sameView(want, got) {
			f.unsound = viewDiff(want, got)
		}
	case res.RejectedAt == StepSTAR || res.RejectedAt == StepData:
		// Apply rejected the update, so the database is still fresh.
		if blind, err := e.BlindApply(text); err == nil && !blind.SideEffect {
			f.gap = gapCause(res)
		}
	}
	return f
}

// viewDiff names the top-level elements two views disagree on.
func viewDiff(want, got *xmltree.Node) string {
	count := map[string]int{}
	for _, c := range want.Children {
		count[viewKey(c)]++
	}
	for _, c := range got.Children {
		count[viewKey(c)]--
	}
	var missing, extra []string
	for k, n := range count {
		for ; n > 0; n-- {
			missing = append(missing, k)
		}
		for ; n < 0; n++ {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	short := func(keys []string) []string {
		for i, k := range keys {
			if len(k) > 240 {
				keys[i] = k[:240] + "..."
			}
		}
		return keys[:min(len(keys), 3)]
	}
	return fmt.Sprintf("view diff: %d expected elements missing %q, %d unexpected %q",
		len(missing), short(missing), len(extra), short(extra))
}

var starRule = regexp.MustCompile(`rule \d|join predicate`)

// gapCause names the STAR rule or data check behind a rejection.
func gapCause(res *Result) string {
	if res.RejectedAt == StepSTAR {
		return "STAR " + starRule.FindString(res.Reason)
	}
	for _, c := range [][2]string{
		{"update context", "context missing"},
		{"inserting would create", "shared part missing"},
		{"duplication consistency", "duplication consistency"},
		{"data conflict", "engine constraint"},
	} {
		if strings.HasPrefix(res.Reason, c[0]) {
			return "data: " + c[1]
		}
	}
	return "data: " + res.Reason
}

// generateUpdates derives the oracle's updates from a view ASG and its
// materialized view. Every internal node is deleted (from its parent and
// by itself), inserted and replaced, with a copy of an existing instance
// and with a fresh one; every tag node is deleted (the element and its
// text), replaced (by another instance's value, a fresh value and empty
// text) and inserted. Each runs under contexts picked by predicates whose
// literals come from the view, so they select no, one and many
// instances. The root is covered as the context of what lies under it.
func generateUpdates(view *asg.ViewASG, doc *xmltree.Node) []string {
	var out []string
	add := func(ctx, format string, args ...any) {
		out = append(out, ctx+"\nUPDATE $x { "+fmt.Sprintf(format, args...)+" }")
	}
	for _, n := range view.Nodes {
		switch n.Kind {
		case asg.KindInternal:
			for _, ctx := range contexts(n.Parent, doc) {
				add(ctx, "DELETE $x/%s", n.Name)
				for _, frag := range fragments(view, n, doc) {
					add(ctx, "INSERT %s", frag)
					add(ctx, "REPLACE $x/%s WITH %s", n.Name, frag)
				}
			}
			for _, ctx := range contexts(n, doc) {
				add(ctx, "DELETE $x")
			}
		case asg.KindTag:
			values := replacements(n, doc)
			for _, ctx := range contexts(n.Parent, doc) {
				add(ctx, "DELETE $x/%s", n.Name)
				add(ctx, "DELETE $x/%s/text()", n.Name)
				for _, v := range values {
					add(ctx, "REPLACE $x/%s WITH %s", n.Name, xmltree.Elem(n.Name, xmltree.Text(v)).String())
				}
				add(ctx, "INSERT %s", xmltree.Elem(n.Name, xmltree.Text(values[0])).String())
			}
		}
	}
	return out
}

// pathOf lists the tags from the view root down to n.
func pathOf(n *asg.Node) []string {
	if n.Kind == asg.KindRoot {
		return nil
	}
	return append(pathOf(n.Parent), n.Name)
}

// contexts returns FOR/WHERE clauses binding $x to instances of n: one
// predicate each selecting no, one and many instances, from the first
// of n's leaves whose view values allow it. The root binds alone.
func contexts(n *asg.Node, doc *xmltree.Node) []string {
	binding := `FOR $x IN document("view.xml")`
	for _, step := range pathOf(n) {
		binding += "/" + step
	}
	insts := doc.FindAll(pathOf(n)...)
	var none, one, many string
	for _, g := range n.Children {
		if g.Kind != asg.KindTag {
			continue
		}
		vals, counts := leafTexts(g, insts)
		if len(vals) == 0 {
			continue
		}
		eq := func(op, v string) string { return fmt.Sprintf(`%s WHERE $x/%s/text() %s "%s"`, binding, g.Name, op, v) }
		if none == "" {
			none = eq("=", fresh(g, vals))
		}
		for _, v := range vals {
			if one == "" && counts[v] == 1 {
				one = eq("=", v)
			}
			if many == "" && counts[v] > 1 {
				many = eq("=", v)
			}
		}
		if many == "" && len(insts) > 2 {
			many = eq("!=", vals[0])
		}
	}
	var out []string
	for _, c := range []string{none, one, many} {
		if c != "" {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, binding)
	}
	return out
}

// leafTexts lists the distinct non-empty values tag g carries in the
// given instances, in view order, with their counts.
func leafTexts(g *asg.Node, insts []*xmltree.Node) ([]string, map[string]int) {
	var vals []string
	counts := map[string]int{}
	for _, inst := range insts {
		if v := leafText(inst, g.Name); v != "" {
			if counts[v]++; counts[v] == 1 {
				vals = append(vals, v)
			}
		}
	}
	return vals, counts
}

// fresh returns a value of g's domain that none of vals is.
func fresh(g *asg.Node, vals []string) string {
	typ := g.LeafUnder().Type
	if typ != relational.TypeInt && typ != relational.TypeFloat {
		return vals[0] + "n"
	}
	top := 0.0
	for _, v := range vals {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > top {
			top = f
		}
	}
	return strconv.FormatFloat(top+1, 'f', -1, 64)
}

// replacements returns the values a tag replace tries: another
// instance's value, a fresh one, and empty text.
func replacements(g *asg.Node, doc *xmltree.Node) []string {
	vals, _ := leafTexts(g, doc.FindAll(pathOf(g.Parent)...))
	if len(vals) == 0 {
		return []string{"1", ""}
	}
	return []string{vals[len(vals)-1], fresh(g, vals), ""}
}

// fragments returns the instances an insert or replace of n supplies: a
// copy of n's first instance in the view, and a fresh one that keeps
// the copy's single-valued parts but takes new values for the key
// columns of n's own relations (those its edge to the context does not
// fix) and leaves out repeated children.
func fragments(view *asg.ViewASG, n *asg.Node, doc *xmltree.Node) []string {
	insts := doc.FindAll(pathOf(n)...)
	if len(insts) == 0 {
		return nil
	}
	inst := insts[0]
	out := xmltree.Elem(n.Name)
	for _, c := range n.Children {
		for _, part := range inst.ChildrenNamed(c.Name) {
			switch {
			case c.Kind == asg.KindTag && inKeyOffEdge(view, n, c.LeafUnder()):
				vals, _ := leafTexts(c, insts)
				out.Append(xmltree.Elem(c.Name, xmltree.Text(fresh(c, vals))))
			case c.Kind == asg.KindTag || !c.EdgeCard.Repeating():
				out.Append(part.Clone())
			}
		}
	}
	return []string{inst.String(), out.String()}
}

// inKeyOffEdge reports whether leaf's column belongs to its relation's
// primary key and is not a column of n's edge condition.
func inKeyOffEdge(view *asg.ViewASG, n, leaf *asg.Node) bool {
	for _, jc := range n.EdgeConds {
		if (jc.LeftRel == leaf.RelName && jc.LeftCol == leaf.ColName) || (jc.RightRel == leaf.RelName && jc.RightCol == leaf.ColName) {
			return false
		}
	}
	def, ok := view.Schema.Table(leaf.RelName)
	if !ok {
		return false
	}
	for _, pk := range def.PrimaryKey {
		if strings.EqualFold(pk, leaf.ColName) {
			return true
		}
	}
	return false
}

// oracleRegressions are updates the oracle caught, kept whatever the
// generator produces.
var oracleRegressions = []struct{ view, text string }{
	// NULLing a leaf the view selects on (price < 50.00) takes the whole
	// book out of the view; Step 1 accepted both forms.
	{"book-cascade", `FOR $x IN document("view.xml")/book WHERE $x/bookid/text() = "98001"
UPDATE $x { DELETE $x/price }`},
	{"book-cascade", `FOR $x IN document("view.xml")/book WHERE $x/bookid/text() = "98001"
UPDATE $x { REPLACE $x/price WITH <price></price> }`},
}

// precisionGaps is the committed count of precision gaps, per view and
// per rule or data check. A change that makes U-Filter reject more
// translatable updates makes a count grow and fails TestVerdictOracle.
var precisionGaps = map[string]map[string]int{
	"book-cascade":   {"STAR join predicate": 7, "STAR rule 2": 11, "data: context missing": 18},
	"book-setnull":   {"STAR join predicate": 7, "STAR rule 2": 11, "data: context missing": 18},
	"book-restrict":  {"STAR join predicate": 7, "STAR rule 2": 11, "data: context missing": 18},
	"book-keyless":   {"STAR join predicate": 2, "STAR rule 2": 11, "data: context missing": 18},
	"protein":        {"STAR join predicate": 6, "STAR rule 2": 9, "data: context missing": 15},
	"vsuccess":       {"STAR join predicate": 10, "data: context missing": 42},
	"vfail-region":   {"STAR join predicate": 12, "STAR rule 2": 6, "data: context missing": 39},
	"vfail-nation":   {"STAR join predicate": 12, "STAR rule 2": 15, "STAR rule 3": 1, "data: context missing": 33},
	"vfail-customer": {"STAR join predicate": 12, "STAR rule 2": 39, "STAR rule 3": 1, "data: context missing": 23},
	"vfail-orders":   {"STAR join predicate": 12, "STAR rule 2": 54, "STAR rule 3": 1, "data: context missing": 15},
	"vfail-lineitem": {"STAR join predicate": 12, "STAR rule 2": 83, "STAR rule 3": 2, "data: context missing": 3},
}

// TestVerdictOracle runs every generated update (every fifth with
// -short) plus the regressions through the oracle: no accepted update
// may be unsound, and no precision-gap count may grow.
func TestVerdictOracle(t *testing.T) {
	gaps := map[string]map[string]int{}
	checked := 0
	for _, v := range oracleViews() {
		c := newOracleCase(t, v)
		var texts []string
		for i, text := range c.updates {
			if !testing.Short() || i%5 == 0 {
				texts = append(texts, text)
			}
		}
		for _, r := range oracleRegressions {
			if r.view == v.name {
				texts = append(texts, r.text)
			}
		}
		gaps[v.name] = map[string]int{}
		for _, text := range texts {
			f := c.check(t, text)
			checked++
			if f.unsound != "" {
				t.Errorf("%s: unsound: %s\n%s", v.name, f.unsound, text)
			}
			if f.gap != "" {
				gaps[v.name][f.gap]++
			}
		}
		for cause, n := range gaps[v.name] {
			if want := precisionGaps[v.name][cause]; n > want {
				t.Errorf("%s: %d precision gaps behind %q, %d committed", v.name, n, cause, want)
			} else if n < want && !testing.Short() {
				t.Logf("%s: %d precision gaps behind %q, %d committed: lower the committed count", v.name, n, cause, want)
			}
		}
	}
	t.Logf("%d updates checked; precision gaps: %v", checked, gaps)
}

// FuzzVerdictOracle picks a view and one of its generated updates and
// fails if the update is unsound.
func FuzzVerdictOracle(f *testing.F) {
	f.Add(uint8(0), uint16(0))
	views := oracleViews()
	cases := make([]*oracleCase, len(views))
	f.Fuzz(func(t *testing.T, view uint8, update uint16) {
		i := int(view) % len(views)
		if cases[i] == nil {
			cases[i] = newOracleCase(t, views[i])
		}
		c := cases[i]
		text := c.updates[int(update)%len(c.updates)]
		if f := c.check(t, text); f.unsound != "" {
			t.Fatalf("%s: unsound: %s\n%s", views[i].name, f.unsound, text)
		}
	})
}

// TestShardedStreamsAgree is the cheaper second oracle, for sharding:
// the generator's updates for BookView and Vsuccess, run in order
// through executors built the way ufilter.New builds a filter over a
// 1-shard and a 4-shard group, must reach the same verdicts and leave
// the same table contents after every update. Contents compare as
// sorted values: row ids are striped across shards, so the SQL differs.
func TestShardedStreamsAgree(t *testing.T) {
	streams := []struct {
		name, query string
		schema      func() (*relational.Schema, error)
		fill        func(relational.Inserter) error
	}{
		{"book", bookdb.ViewQuery, func() (*relational.Schema, error) { return bookdb.Schema(relational.DeleteCascade) }, bookdb.Populate},
		{"vsuccess", tpch.VsuccessQuery, tpch.Schema, func(sink relational.Inserter) error { return tpch.Generate(sink, tpch.RowsForMB(1)) }},
	}
	for _, s := range streams {
		open := func(n int) *Filter {
			schema, err := s.schema()
			if err != nil {
				t.Fatal(err)
			}
			db, _, err := shard.New(schema, n, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Load(s.fill); err != nil {
				t.Fatal(err)
			}
			return newExec(t, db, s.query)
		}
		one, four := open(1), open(4)
		verdict := func(res *Result, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprintf("accepted=%v rejected_at=%s outcome=%s", res.Accepted, res.RejectedAt, res.Outcome)
		}
		// Inserts and replaces run first, then the deletes from the
		// deepest node up, so no early delete empties the view the rest
		// of the stream works on.
		var stream, deletes []string
		for _, text := range generateUpdates(one.View, materialize(t, one)) {
			if strings.Contains(text, "{ DELETE") {
				deletes = append([]string{text}, deletes...)
			} else {
				stream = append(stream, text)
			}
		}
		for i, text := range append(stream, deletes...) {
			if testing.Short() && i%3 != 0 {
				continue
			}
			if v1, v4 := verdict(one.Apply(context.Background(), text)), verdict(four.Apply(context.Background(), text)); v1 != v4 {
				t.Fatalf("%s update %d: 1 shard %s, 4 shards %s\n%s", s.name, i, v1, v4, text)
			}
			if d1, d4 := dumpTables(t, one), dumpTables(t, four); d1 != d4 {
				t.Fatalf("%s update %d: table contents diverged\n1 shard:\n%s\n4 shards:\n%s\n%s", s.name, i, d1, d4, text)
			}
		}
	}
}
