package ufilter

import (
	"fmt"
	"strings"

	"repro/internal/asg"
	"repro/internal/relational"
	"repro/internal/sqlexec"
	"repro/internal/xqparse"
)

// executeInternal implements the internal strategy of Section 6.2.1:
// the XML view maps to a relational left-join view, and the update is
// decomposed by the (simulated) relational engine against that view.
// For inserts this requires a complete relational view tuple, so a wide
// probe fetches every attribute of every ancestor relation — the
// deliberate inefficiency Fig. 15 measures. Deletes and updates have no
// counterpart in most engines' join-view support (the paper's first
// shortcoming: "limited on supporting updates over Join-views"), so
// they fall back to the hybrid path with a warning.
func (e *Filter) executeInternal(ac *applyCtx, ro *ResolvedOp, stmts []sqlexec.Statement, res *Result) (string, error) {
	if ro.Op.Kind != xqparse.OpInsert {
		res.Warnings = append(res.Warnings,
			"internal strategy: relational join-views do not support this operation; falling back to hybrid")
		return e.executeHybrid(ac, stmts, res)
	}
	jv, err := e.joinViewFor(ro.Target)
	if err != nil {
		return "", err
	}

	// Wide probe: all attributes of all context relations, no pruning.
	c := ro.Context
	var probeRows []map[string]relational.Value
	if c.Kind != asg.KindRoot && len(c.UCBinding) > 0 {
		sel := &sqlexec.SelectStmt{From: c.UCBinding.Names()}
		for _, t := range sel.From {
			def, ok := e.View.Schema.Table(t)
			if !ok {
				continue
			}
			for _, col := range def.ColumnNames() {
				sel.Project = append(sel.Project, sqlexec.ColRef{Table: def.Name, Column: col})
			}
		}
		keep := c.UCBinding
		for _, sp := range c.ScopePreds {
			if p, ok := compileScopePred(sp, keep); ok {
				sel.Where = append(sel.Where, p)
			}
		}
		for _, up := range ac.preds {
			if keep.Has(up.Leaf.RelName) {
				sel.Where = append(sel.Where, sqlexec.Cmp(up.Leaf.RelName, up.Leaf.ColName, up.Op, up.Lit))
			}
		}
		rs, err := e.Exec.ExecSelectOn(ac.txn, sel)
		if err != nil {
			return "", err
		}
		res.issued = append(res.issued, issuedProbe{sel: sel})
		if rs.Empty() {
			return "update context does not exist in the view (internal strategy probe)", nil
		}
		for _, row := range rs.Rows {
			m := map[string]relational.Value{}
			for i, col := range rs.Columns {
				m[strings.ToLower(col.Table)+"."+strings.ToLower(col.Column)] = row[i]
			}
			probeRows = append(probeRows, m)
		}
	} else {
		probeRows = []map[string]relational.Value{{}}
	}

	// The generated single-table inserts carry the new tuples; merge
	// them with each wide-probe row into full view tuples.
	newParts := map[string]map[string]relational.Value{}
	for _, st := range stmts {
		ins, ok := st.(*sqlexec.InsertStmt)
		if !ok {
			continue
		}
		if newParts[strings.ToLower(ins.Table)] == nil {
			newParts[strings.ToLower(ins.Table)] = map[string]relational.Value{}
		}
		for c, v := range ins.Values {
			newParts[strings.ToLower(ins.Table)][strings.ToLower(c)] = v
		}
	}
	inserted := 0
	for _, row := range probeRows {
		full := map[string]relational.Value{}
		for k, v := range row {
			full[k] = v
		}
		for t, vals := range newParts {
			for c, v := range vals {
				full[t+"."+c] = v
			}
		}
		sql := &sqlexec.InsertStmt{Table: jv.Name, Values: full}
		res.SQL = append(res.SQL, sql.String())
		n, err := e.Exec.InsertIntoJoinView(ac.txn, jv, full)
		if err != nil {
			if relational.IsConstraintViolation(err) {
				return fmt.Sprintf("data conflict reported by the engine: %v", err), nil
			}
			return fmt.Sprintf("relational view rejected the insert: %v", err), nil
		}
		inserted += n
	}
	res.RowsAffected += inserted
	return "", nil
}

// joinViewFor derives the left-join relational view (Fig. 11) covering
// the relations from the root down to the target node.
func (e *Filter) joinViewFor(target *asg.Node) (*sqlexec.JoinViewDef, error) {
	// Relations in nesting order, with the edge conditions seen on the
	// way down.
	var chainNodes []*asg.Node
	for cur := target; cur != nil; cur = cur.Parent {
		chainNodes = append([]*asg.Node{cur}, chainNodes...)
	}
	var rels []string
	seen := asg.RelSet{}
	var conds []asg.JoinCond
	for _, n := range chainNodes {
		conds = append(conds, n.EdgeConds...)
		for _, r := range n.CR().Names() {
			if !seen.Has(r) {
				seen.Add(r)
				rels = append(rels, r)
			}
		}
	}
	rels = e.fkOrder(rels)
	if len(rels) == 0 {
		return nil, fmt.Errorf("ufilter: node %s maps to no relations", target.Label())
	}
	placed := asg.NewRelSet(rels[0])
	for _, r := range rels[1:] {
		if !joinLinked(r, placed, conds, e.View.Schema) {
			return nil, fmt.Errorf("ufilter: no join condition links %s into the relational view", r)
		}
		placed.Add(r)
	}
	return &sqlexec.JoinViewDef{Name: "Relational" + e.View.Root.Name, Tables: rels}, nil
}

// joinLinked reports whether a join condition (or a one-column foreign
// key) links a relation to an already-placed one.
func joinLinked(rel string, placed asg.RelSet, conds []asg.JoinCond, schema *relational.Schema) bool {
	for _, jc := range conds {
		if strings.EqualFold(jc.LeftRel, rel) && placed.Has(jc.RightRel) ||
			strings.EqualFold(jc.RightRel, rel) && placed.Has(jc.LeftRel) {
			return true
		}
	}
	if def, ok := schema.Table(rel); ok {
		for _, fk := range def.ForeignKeys {
			if placed.Has(fk.RefTable) && len(fk.Columns) == 1 {
				return true
			}
		}
	}
	return false
}
