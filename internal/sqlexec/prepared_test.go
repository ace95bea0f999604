package sqlexec

import (
	"strings"
	"testing"

	"repro/internal/relational"
)

// preparedTestExec builds a tiny one-table database for the prepared
// statement tests.
func preparedTestExec(t *testing.T) *Executor {
	t.Helper()
	item, err := relational.NewTableDef("item", []relational.Column{
		{Name: "id", Type: relational.TypeInt, NotNull: true},
		{Name: "name", Type: relational.TypeString},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema(item)
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(schema)
	for i, n := range []string{"ant", "bee", "cat"} {
		insert(t, db, "item", map[string]relational.Value{
			"id": relational.Int_(int64(i + 1)), "name": relational.String_(n),
		})
	}
	return NewExecutor(db)
}

// TestPrepareBindExecSelect: a parameterized SELECT template renders
// with ?N placeholders, rejects short argument tuples, and evaluates
// identically to its literal-bound equivalent.
func TestPrepareBindExecSelect(t *testing.T) {
	e := preparedTestExec(t)
	tmpl := &SelectStmt{
		Project: []ColRef{{Table: "item", Column: "name"}},
		From:    []string{"item"},
		Where: []Predicate{{
			Left:  ColOperand("item", "id"),
			Op:    relational.OpEQ,
			Right: ParamOperand(0),
		}},
	}
	stmt, err := e.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Errorf("NumParams = %d, want 1", stmt.NumParams())
	}
	if !strings.Contains(stmt.String(), "item.id = ?1") {
		t.Errorf("template renders as %q", stmt.String())
	}
	if _, err := stmt.Bind(); err == nil {
		t.Error("Bind with no arguments should fail")
	}
	rs, err := stmt.ExecSelect(relational.Int_(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "bee" {
		t.Errorf("rows = %+v", rs.Rows)
	}
	// The bound text substitutes the literal.
	if sql := stmt.SQL(relational.Int_(2)); !strings.Contains(sql, "item.id = 2") {
		t.Errorf("bound SQL = %q", sql)
	}
	// Repeated executions with different arguments reuse the compiled
	// form and do not interfere.
	for id, want := range map[int64]string{1: "ant", 3: "cat"} {
		rs, err := stmt.ExecSelect(relational.Int_(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 || rs.Rows[0][0].Str != want {
			t.Errorf("id %d: rows = %+v", id, rs.Rows)
		}
	}
}

// TestUnboundParamRejected: executing a statement that still carries
// parameter placeholders is an error, not a silent NULL comparison.
func TestUnboundParamRejected(t *testing.T) {
	e := preparedTestExec(t)
	sel := &SelectStmt{
		From:  []string{"item"},
		Where: []Predicate{{Left: ColOperand("item", "id"), Op: relational.OpEQ, Right: ParamOperand(0)}},
	}
	if _, err := e.ExecSelect(sel); err == nil {
		t.Error("ExecSelect with an unbound parameter should fail")
	}
	stmt, err := e.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.ExecSelect(); err == nil {
		t.Error("prepared ExecSelect without arguments should fail")
	}
}

// TestPreparedDML: DELETE and UPDATE templates bind and execute.
func TestPreparedDML(t *testing.T) {
	e := preparedTestExec(t)
	upd, err := e.Prepare(&UpdateStmt{
		Table: "item",
		Set:   map[string]relational.Value{"name": relational.String_("dog")},
		Where: []Predicate{{Left: ColOperand("item", "id"), Op: relational.OpEQ, Right: ParamOperand(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	txn := e.DB.BeginTxn()
	n, err := upd.Exec(txn, relational.Int_(3))
	if err != nil || n != 1 {
		t.Fatalf("update exec: n=%d err=%v", n, err)
	}
	del, err := e.Prepare(&DeleteStmt{
		Table: "item",
		Where: []Predicate{{Left: ColOperand("item", "id"), Op: relational.OpEQ, Right: ParamOperand(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err = del.Exec(txn, relational.Int_(1))
	if err != nil || n != 1 {
		t.Fatalf("delete exec: n=%d err=%v", n, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.DB.RowCount("item"); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
}
