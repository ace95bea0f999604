package ufilter

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asg"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xqparse"
)

// probePred is one user predicate in probe-builder form: the resolved
// leaf plus the comparison's right-hand operand — a literal for
// immediate execution, or a parameter placeholder when compiling a
// reusable probe template for an UpdatePlan.
type probePred struct {
	leaf *asg.Node
	op   relational.CompareOp
	rhs  sqlexec.Operand
}

// buildContextProbe composes the probe query of Section 6.1 for an
// operation anchored at context node C, with the user's predicate
// literals inlined.
func (e *Filter) buildContextProbe(c *asg.Node, userPreds []UserPred, mustKeep asg.RelSet) *sqlexec.SelectStmt {
	preds := make([]probePred, len(userPreds))
	for i, up := range userPreds {
		preds[i] = probePred{leaf: up.Leaf, op: up.Op, rhs: sqlexec.LitOperand(up.Lit)}
	}
	return e.buildProbe(c, preds, mustKeep)
}

// buildContextProbeTemplate composes the same probe with parameter
// placeholders in place of the predicate literals: slot i's literal
// binds parameter ?i+1. The result is the parameterized SQL statement
// an UpdatePlan prepares once and executes many times.
func (e *Filter) buildContextProbeTemplate(c *asg.Node, slots []Slot, mustKeep asg.RelSet) *sqlexec.SelectStmt {
	preds := make([]probePred, len(slots))
	for i, s := range slots {
		preds[i] = probePred{leaf: s.Leaf, op: s.Op, rhs: sqlexec.ParamOperand(i)}
	}
	return e.buildProbe(c, preds, mustKeep)
}

// buildProbe is the shared probe builder: the view's predicates along
// the path to C joined with the user update's predicates. The probe
// projects every column plus the rowid of each retained relation so its
// materialized result can be reused by the translated statements.
//
// Probe pruning: a relation is dropped when no predicate mentions it and
// every join reaching it goes through a NOT NULL foreign key onto its
// key — in that case the relational constraints already guarantee the
// join partner exists (this is what lets the external strategy fetch
// "only the L_ORDERKEY" in the paper's Fig. 15 discussion). Relations
// reachable only through nullable joins stay, which keeps the paper's
// PQ1/PQ2 shape for BookView.
func (e *Filter) buildProbe(c *asg.Node, userPreds []probePred, mustKeep asg.RelSet) *sqlexec.SelectStmt {
	if c.Kind == asg.KindRoot || len(c.UCBinding) == 0 {
		return nil
	}
	// Pinned relations: those the translation reads, those the user's
	// predicates touch, and those with local view predicates.
	pinned := asg.RelSet{}
	for r := range mustKeep {
		if c.UCBinding.Has(r) {
			pinned.Add(r)
		}
	}
	for _, up := range userPreds {
		if c.UCBinding.Has(up.leaf.RelName) {
			pinned.Add(up.leaf.RelName)
		}
	}
	for _, sp := range c.ScopePreds {
		if sp.IsCorrelation() {
			continue
		}
		attr := sp.Left
		if attr.IsLit {
			attr = sp.Right
		}
		if c.UCBinding.Has(attr.Rel) {
			pinned.Add(attr.Rel)
		}
	}
	if len(pinned) == 0 {
		// Nothing pins any relation: pin the context's current
		// relations so the probe witnesses instance existence.
		for r := range c.CR() {
			pinned.Add(r)
		}
	}
	// Leaf pruning over the join graph: an unpinned relation with a
	// single join neighbor whose edge is FK-guaranteed (the surviving
	// side's column is a NOT NULL foreign key onto the pruned side's
	// key, so a match always exists) can be removed without changing
	// the probe's result. Repeat until fixpoint; connector relations on
	// the path between pinned ones always survive.
	keep := c.UCBinding.Clone()
	joinEdges := func() map[string][]asg.CompiledPred {
		out := map[string][]asg.CompiledPred{}
		for _, sp := range c.ScopePreds {
			if !sp.IsCorrelation() || sp.Op != relational.OpEQ {
				continue
			}
			if !keep.Has(sp.Left.Rel) || !keep.Has(sp.Right.Rel) || sp.Left.Rel == sp.Right.Rel {
				continue
			}
			out[sp.Left.Rel] = append(out[sp.Left.Rel], sp)
			out[sp.Right.Rel] = append(out[sp.Right.Rel], sp)
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		edges := joinEdges()
		for r := range keep.Clone() {
			if pinned.Has(r) {
				continue
			}
			incident := edges[r]
			if len(incident) != 1 {
				continue
			}
			sp := incident[0]
			other, mine := sp.Right, sp.Left
			if sp.Right.Rel == r {
				other, mine = sp.Left, sp.Right
			}
			if e.joinGuaranteedByFK(other, mine) {
				delete(keep, r)
				changed = true
			}
		}
	}

	tables := keep.Names()
	sel := &sqlexec.SelectStmt{From: tables}
	for _, t := range tables {
		def, ok := e.View.Schema.Table(t)
		if !ok {
			continue
		}
		sel.Project = append(sel.Project, sqlexec.ColRef{Table: def.Name, Column: "rowid"})
		for _, col := range def.ColumnNames() {
			sel.Project = append(sel.Project, sqlexec.ColRef{Table: def.Name, Column: col})
		}
	}
	for _, sp := range c.ScopePreds {
		if p, ok := compileScopePred(sp, keep); ok {
			sel.Where = append(sel.Where, p)
		}
	}
	for _, up := range userPreds {
		if keep.Has(up.leaf.RelName) {
			sel.Where = append(sel.Where, sqlexec.Predicate{
				Left:  sqlexec.ColOperand(up.leaf.RelName, up.leaf.ColName),
				Op:    up.op,
				Right: up.rhs,
			})
		}
	}
	return sel
}

// joinGuaranteedByFK reports whether the equality from.Rel.from.Col =
// to.Rel.to.Col is implied for every from-row by a NOT NULL foreign key
// from from.Rel onto a key of to.Rel.
func (e *Filter) joinGuaranteedByFK(from, to asg.Ref) bool {
	def, ok := e.View.Schema.Table(from.Rel)
	if !ok {
		return false
	}
	for _, fk := range def.ForeignKeys {
		if !strings.EqualFold(fk.RefTable, to.Rel) {
			continue
		}
		if len(fk.Columns) != 1 || !strings.EqualFold(fk.Columns[0], from.Col) || !strings.EqualFold(fk.RefColumns[0], to.Col) {
			continue
		}
		if def.IsNotNullColumn(fk.Columns[0]) {
			return true
		}
	}
	return false
}

// compileScopePred converts a compiled view predicate into an executor
// predicate when all referenced relations are retained.
func compileScopePred(sp asg.CompiledPred, keep asg.RelSet) (sqlexec.Predicate, bool) {
	conv := func(r asg.Ref) (sqlexec.Operand, bool) {
		if r.IsLit {
			return sqlexec.LitOperand(r.Lit), true
		}
		if !keep.Has(r.Rel) {
			return sqlexec.Operand{}, false
		}
		return sqlexec.ColOperand(r.Rel, r.Col), true
	}
	left, ok := conv(sp.Left)
	if !ok {
		return sqlexec.Predicate{}, false
	}
	right, ok := conv(sp.Right)
	if !ok {
		return sqlexec.Predicate{}, false
	}
	return sqlexec.Predicate{Left: left, Op: sp.Op, Right: right}, true
}

// relsNeededByOp lists context relations the translated statements will
// read from the probe result (join columns and anchor rowids), so probe
// pruning keeps them.
func relsNeededByOp(ro *ResolvedOp) asg.RelSet {
	need := asg.RelSet{}
	t := ro.Target
	if t.Kind != asg.KindInternal {
		need.Add(t.RelName)
		return need
	}
	if ro.Anchor != "" {
		need.Add(ro.Anchor)
	}
	if t != ro.Context {
		for _, ref := range edgeContextCols(t) {
			need.Add(ref.Rel)
		}
	}
	return need
}

// edgeContextCols lists the context side of t's edge conditions: the
// columns a translation wiring t's new rows to its context (or deleting
// them by join) reads from the context probe.
func edgeContextCols(t *asg.Node) []asg.Ref {
	var out []asg.Ref
	cr := t.CR()
	for _, jc := range t.EdgeConds {
		if !cr.Has(jc.LeftRel) {
			out = append(out, asg.Ref{Rel: jc.LeftRel, Col: jc.LeftCol})
		}
		if !cr.Has(jc.RightRel) {
			out = append(out, asg.Ref{Rel: jc.RightRel, Col: jc.RightCol})
		}
	}
	return out
}

// opTranslation is the generated SQL for one operation, possibly
// parameterized per context-probe row.
type opTranslation struct {
	// Statements are the translated single-table DML statements.
	Statements []sqlexec.Statement
	// SharedChecks are existence/consistency probes the data-driven
	// step must run before the inserts (CondSharedPartsExist), over the
	// content values their slots index.
	SharedChecks []SharedCheck
	content      []relational.Value
}

// SharedCheck verifies that a shared fragment part already exists in
// the base (CondSharedPartsExist) and agrees with the inserted values
// (duplication consistency). It is template-level: which columns the
// fragment supplies is fixed per update template, and the values come
// from the bound instance's content slots.
type SharedCheck struct {
	Rel     string
	KeyCols []string
	// keySlots holds the content slot of each key column, -1 when the
	// fragment does not supply it.
	keySlots []int
	// cols maps every column the fragment supplies to its content slot,
	// for duplication consistency.
	cols map[string]int
}

// translateDelete generates the statements for a delete of target T
// anchored at context C, given the materialized probe (nil when C is
// the root). Auxiliary probes read through the apply's transaction;
// res records any probe issued.
func (e *Filter) translateDelete(ac *applyCtx, ro *ResolvedOp, probe *sqlexec.ResultSet, tempName string, res *Result) (*opTranslation, error) {
	t := ro.Target
	switch t.Kind {
	case asg.KindLeaf, asg.KindTag:
		return translateLeafUpdate(replaceLeafOf(t), relational.Null(), probe)
	case asg.KindInternal:
		anchor := ro.Anchor
		if anchor == "" {
			return nil, fmt.Errorf("ufilter: node %s has no delete anchor (unsafe-delete should have been rejected)", t.Label())
		}
		// The target is the context, or a card-1 child constructed from
		// the context's own bindings (no edge conditions): the anchor rows
		// are those the context probe matched — the paper's direct
		// translation "delete from publisher where rowid = t1".
		if probe != nil && (t == ro.Context || len(t.EdgeConds) == 0) {
			return deleteRows(probe, anchor)
		}
		// Child of the context: when the edge conditions link the anchor
		// to relations present in the materialized context, use the
		// paper's U3 shape (DELETE ... WHERE col IN (SELECT ... FROM
		// TAB_<ctx>)).
		if where := inTempWhere(t, anchor, probe, tempName); len(where) > 0 {
			return &opTranslation{Statements: []sqlexec.Statement{&sqlexec.DeleteStmt{Table: anchor, Where: where}}}, nil
		}
		// Otherwise — e.g. bushy views whose target spans several new
		// relations, the delete half of a replace, which carries no
		// materialized temp, or a child of the root, which has no context
		// probe — probe the target instances directly and delete by rowid.
		sel := e.buildContextProbe(t, ac.preds, asg.NewRelSet(anchor))
		if sel == nil {
			return nil, fmt.Errorf("ufilter: no probe derivable for delete of <%s>", t.Name)
		}
		rs, err := e.Exec.ExecSelectOn(ac.txn, sel)
		if err != nil {
			return nil, err
		}
		res.issued = append(res.issued, issuedProbe{sel: sel})
		return deleteRows(rs, anchor)
	}
	return nil, fmt.Errorf("ufilter: cannot delete node kind %s", t.Kind)
}

// deleteRows deletes, by rowid, the anchor rows a probe result carries.
func deleteRows(rs *sqlexec.ResultSet, anchor string) (*opTranslation, error) {
	ids, err := probeRowIDs(rs, anchor)
	if err != nil {
		return nil, err
	}
	out := &opTranslation{}
	for _, id := range ids {
		out.Statements = append(out.Statements, &sqlexec.DeleteStmt{
			Table: anchor,
			Where: []sqlexec.Predicate{sqlexec.Eq(anchor, "rowid", relational.Int_(int64(id)))},
		})
	}
	return out, nil
}

// inTempWhere builds the U3 shape's WHERE clause — the anchor's side of
// each of t's edge conditions IN the materialized context temp — or nil
// when the temp does not carry a context column it needs.
func inTempWhere(t *asg.Node, anchor string, probe *sqlexec.ResultSet, tempName string) []sqlexec.Predicate {
	if probe == nil || tempName == "" {
		return nil
	}
	var where []sqlexec.Predicate
	for _, jc := range t.EdgeConds {
		aRel, aCol, cRel, cCol := jc.LeftRel, jc.LeftCol, jc.RightRel, jc.RightCol
		if !t.CR().Has(aRel) {
			aRel, aCol, cRel, cCol = jc.RightRel, jc.RightCol, jc.LeftRel, jc.LeftCol
		}
		if !strings.EqualFold(aRel, anchor) {
			continue
		}
		if _, ok := probe.ColumnIndex(sqlexec.ColRef{Table: cRel, Column: cCol}); !ok {
			return nil
		}
		where = append(where, sqlexec.Predicate{
			Left:         sqlexec.ColOperand(anchor, aCol),
			InTemp:       tempName,
			InTempColumn: cRel + "." + cCol,
		})
	}
	return where
}

// insertPlan is the template-level half of an insert translation: which
// content slot feeds which column of which relation, the shared-part
// checks and the FK-ordered insert list are all fixed per update
// template, so an UpdatePlan computes them once. The content values and
// the per-probe-row context wiring are left for execution time.
type insertPlan struct {
	node         *asg.Node
	relCols      map[string]map[string]int // relation -> column -> content slot
	hidden       []HiddenValue             // values for unpublished columns the view selects on
	sharedChecks []SharedCheck
	insertRels   []string
}

// compileInsert builds the template-level insert artifacts for an
// insert of a fragment as a new instance of node n. slots are the
// fragment's content slots, base the index of the first one in the
// content tuple the plan will be bound to.
func (e *Filter) compileInsert(n *asg.Node, slots []ContentSlot, base int) *insertPlan {
	relCols := map[string]map[string]int{}
	set := func(rel, col string, slot int) {
		if relCols[rel] == nil {
			relCols[rel] = map[string]int{}
		}
		relCols[rel][col] = slot
	}
	for i, s := range slots {
		set(s.Leaf.RelName, s.Leaf.ColName, base+i)
	}
	cr := n.CR()
	shared := e.Marks.SharedRels[n]

	// Intra-fragment wiring: join conditions between two relations of
	// the fragment copy values across (book.pubid := publisher.pubid).
	for _, jc := range n.EdgeConds {
		if cr.Has(jc.LeftRel) && cr.Has(jc.RightRel) {
			if slot, ok := relCols[jc.RightRel][jc.RightCol]; ok {
				if _, present := relCols[jc.LeftRel][jc.LeftCol]; !present {
					set(jc.LeftRel, jc.LeftCol, slot)
				}
			}
			if slot, ok := relCols[jc.LeftRel][jc.LeftCol]; ok {
				if _, present := relCols[jc.RightRel][jc.RightCol]; !present {
					set(jc.RightRel, jc.RightCol, slot)
				}
			}
		}
	}

	ip := &insertPlan{node: n, relCols: relCols, hidden: e.Marks.Hidden[n]}
	// Shared parts (Rule 3): verified, not inserted.
	for _, rel := range shared.Names() {
		def, ok := e.View.Schema.Table(rel)
		if !ok || len(def.PrimaryKey) == 0 {
			continue
		}
		chk := SharedCheck{Rel: rel, cols: relCols[rel]}
		for _, pk := range def.PrimaryKey {
			pk = strings.ToLower(pk)
			slot, ok := relCols[rel][pk]
			if !ok {
				slot = -1
			}
			chk.KeyCols = append(chk.KeyCols, pk)
			chk.keySlots = append(chk.keySlots, slot)
		}
		ip.sharedChecks = append(ip.sharedChecks, chk)
	}

	// Insert relations in FK order (referenced tables first).
	for _, r := range cr.Names() {
		if !shared.Has(r) {
			ip.insertRels = append(ip.insertRels, r)
		}
	}
	ip.insertRels = e.fkOrder(ip.insertRels)
	return ip
}

// checkSharedKeys rejects an instance that does not supply the key of a
// shared relation: without it the shared part cannot be verified.
func (ip *insertPlan) checkSharedKeys(content []relational.Value) error {
	for _, chk := range ip.sharedChecks {
		for _, slot := range chk.keySlots {
			if slot < 0 || content[slot].IsNull() {
				return invalidf("insert of <%s> must supply the key of shared relation %s", ip.node.Name, chk.Rel)
			}
		}
	}
	return nil
}

// translate is the execution-time half: one set of inserts per probe
// row (per qualifying context instance) carrying the bound content
// values, with the context side of each edge condition wired into the
// new tuples; when the context is the root a single set is produced.
func (ip *insertPlan) translate(content []relational.Value, probe *sqlexec.ResultSet) (*opTranslation, error) {
	if err := ip.checkSharedKeys(content); err != nil {
		return nil, err
	}
	n, cr := ip.node, ip.node.CR()
	out := &opTranslation{SharedChecks: ip.sharedChecks, content: content}
	emit := func(wire map[string]relational.Value) {
		for _, rel := range ip.insertRels {
			vals := map[string]relational.Value{}
			for c, slot := range ip.relCols[rel] {
				vals[c] = content[slot]
			}
			for _, h := range ip.hidden {
				if h.Rel == rel {
					vals[h.Col] = h.Value
				}
			}
			for qualified, v := range wire {
				parts := strings.SplitN(qualified, ".", 2)
				if len(parts) == 2 && strings.EqualFold(parts[0], rel) {
					if _, present := vals[parts[1]]; !present {
						vals[parts[1]] = v
					}
				}
			}
			out.Statements = append(out.Statements, &sqlexec.InsertStmt{Table: rel, Values: vals})
		}
	}

	if probe == nil {
		emit(nil)
		return out, nil
	}
	// Context wiring: per probe row, copy the context side of each edge
	// condition into the new tuples (review.bookid := book.bookid).
	for _, row := range probe.Rows {
		wire := map[string]relational.Value{}
		for _, jc := range n.EdgeConds {
			newRel, newCol, ctxRel, ctxCol := jc.LeftRel, jc.LeftCol, jc.RightRel, jc.RightCol
			if !cr.Has(newRel) {
				newRel, newCol, ctxRel, ctxCol = jc.RightRel, jc.RightCol, jc.LeftRel, jc.LeftCol
			}
			if !cr.Has(newRel) || cr.Has(ctxRel) {
				continue
			}
			ci, ok := probe.ColumnIndex(sqlexec.ColRef{Table: ctxRel, Column: ctxCol})
			if !ok {
				continue
			}
			wire[newRel+"."+newCol] = row[ci]
		}
		emit(wire)
	}
	return out, nil
}

// translateOp generates the statements of one op from its plan's
// artifacts, bound to the apply's values; probe and tempName are its
// context check's result.
func (e *Filter) translateOp(ac *applyCtx, ro *ResolvedOp, po *PlannedOp, probe *sqlexec.ResultSet, tempName string, res *Result) (*opTranslation, error) {
	switch ro.Op.Kind {
	case xqparse.OpDelete:
		return e.translateDelete(ac, ro, probe, tempName, res)
	case xqparse.OpInsert:
		return po.insert.translate(ac.content, probe)
	}
	return e.translateReplace(ac, ro, probe, po, res)
}

// translateReplace translates a replace: for tag/leaf targets it is a
// single-column UPDATE; internal targets decompose into delete+insert.
// po carries the compiled plan's artifacts for the op, bound to the
// apply's content values.
func (e *Filter) translateReplace(ac *applyCtx, ro *ResolvedOp, probe *sqlexec.ResultSet, po *PlannedOp, res *Result) (*opTranslation, error) {
	if po.insert == nil {
		return translateLeafUpdate(replaceLeafOf(ro.Target), ac.content[po.replace], probe)
	}
	del, err := e.translateDelete(ac, ro, probe, "", res)
	if err != nil {
		return nil, err
	}
	ins, err := po.insert.translate(ac.content, probe)
	if err != nil {
		return nil, err
	}
	ins.Statements = append(del.Statements, ins.Statements...)
	return ins, nil
}

// replaceLeafOf resolves the leaf a tag/leaf replace writes to.
func replaceLeafOf(t *asg.Node) *asg.Node {
	if t.Kind == asg.KindTag {
		return t.LeafUnder()
	}
	return t
}

// translateLeafUpdate emits one single-column UPDATE per probed target
// row: a leaf replace, or a leaf delete's SET NULL.
func translateLeafUpdate(leaf *asg.Node, v relational.Value, probe *sqlexec.ResultSet) (*opTranslation, error) {
	ids, err := probeRowIDs(probe, leaf.RelName)
	if err != nil {
		return nil, err
	}
	out := &opTranslation{}
	for _, id := range ids {
		out.Statements = append(out.Statements, &sqlexec.UpdateStmt{
			Table: leaf.RelName,
			Set:   map[string]relational.Value{leaf.ColName: v},
			Where: []sqlexec.Predicate{sqlexec.Eq(leaf.RelName, "rowid", relational.Int_(int64(id)))},
		})
	}
	return out, nil
}

// fkOrder sorts relations so referenced tables precede referencing ones.
func (e *Filter) fkOrder(rels []string) []string {
	sorted := append([]string(nil), rels...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return e.fkDepth(sorted[i]) < e.fkDepth(sorted[j])
	})
	return sorted
}

// fkDepth counts the longest FK chain from the relation to a root table.
func (e *Filter) fkDepth(rel string) int {
	seen := map[string]bool{}
	var walk func(r string) int
	walk = func(r string) int {
		if seen[r] {
			return 0
		}
		seen[r] = true
		def, ok := e.View.Schema.Table(r)
		if !ok {
			return 0
		}
		best := 0
		for _, fk := range def.ForeignKeys {
			if d := walk(strings.ToLower(fk.RefTable)) + 1; d > best {
				best = d
			}
		}
		return best
	}
	return walk(strings.ToLower(rel))
}

// probeRowIDs extracts the rowid column of a relation from a probe
// result, deduplicated in order.
func probeRowIDs(probe *sqlexec.ResultSet, rel string) ([]relational.RowID, error) {
	if probe == nil {
		return nil, fmt.Errorf("ufilter: delete of %s requires a context probe", rel)
	}
	ci, ok := probe.ColumnIndex(sqlexec.ColRef{Table: rel, Column: "rowid"})
	if !ok {
		return nil, fmt.Errorf("ufilter: probe result does not carry %s.rowid", rel)
	}
	seen := map[relational.RowID]bool{}
	var out []relational.RowID
	for _, row := range probe.Rows {
		id := relational.RowID(row[ci].Int)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
}
