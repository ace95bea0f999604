// Package walcrash is the crash-recovery proving ground for the
// relational engine's write-ahead log. Its tests run a child process (a
// re-exec of the test binary) through a deterministic randomized
// workload with a crash fault armed on the file-system seam, let the
// child die mid-commit, mid-fsync, mid-rotation or mid-checkpoint with
// SIGKILL, then reopen the WAL directory in the parent and assert that
// EXACTLY the committed prefix of the workload is visible: every
// acknowledged transaction survived, no partially-applied transaction
// leaked, and all integrity invariants (primary keys, unique columns,
// foreign keys) hold against an independently computed shadow model.
// Its crash-state tests reopen, against the same model, every state a
// power cut could leave behind a recorded run of the workload.
//
// The workload is a pure function of its seed, so the parent can
// reconstruct what the child's first N transactions did without any
// channel other than the recovered ledger table itself: transaction k
// inserts ledger row k, making the committed-prefix length N readable
// from the recovered database, and the shadow model at N comparable
// row-for-row.
package walcrash

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/relational"
)

// Schema returns the harness schema: parent (PK + UNIQUE name), child
// (PK + CASCADE foreign key into parent) and ledger (one row per
// committed workload transaction). The foreign key with CASCADE makes
// single transactions touch multiple tables and rows, which is what
// torn-apply detection needs.
func Schema() (*relational.Schema, error) {
	parent, err := relational.NewTableDef("parent", []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "name", Type: relational.TypeString, NotNull: true, Unique: true},
	}, []string{"id"}, nil)
	if err != nil {
		return nil, err
	}
	child, err := relational.NewTableDef("child", []relational.Column{
		{Name: "id", Type: relational.TypeInt},
		{Name: "parent_id", Type: relational.TypeInt},
		{Name: "val", Type: relational.TypeString},
	}, []string{"id"}, []relational.ForeignKey{{
		Name: "child_parent_fk", Columns: []string{"parent_id"},
		RefTable: "parent", RefColumns: []string{"id"}, OnDelete: relational.DeleteCascade,
	}})
	if err != nil {
		return nil, err
	}
	ledger, err := relational.NewTableDef("ledger", []relational.Column{
		{Name: "txn", Type: relational.TypeInt},
	}, []string{"txn"}, nil)
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(parent, child, ledger)
}

// Op kinds a workload transaction is built from.
const (
	opInsertParent = iota
	opInsertChild
	opUpdateChild
	opDeleteParent
)

// Op is one row operation of a workload transaction, in logical keys
// (the engine's row ids are an implementation detail the shadow model
// does not track).
type Op struct {
	Kind     int
	ID       int64  // parent.id / child.id, per kind
	ParentID int64  // opInsertChild
	Val      string // opInsertChild / opUpdateChild
}

// Model is the shadow state the workload is checked against: plain maps
// updated by the same op stream the engine applies.
type Model struct {
	Parents  map[int64]string         // id -> name
	Children map[int64][2]interface{} // id -> {parent_id int64, val string}
	Ledger   map[int64]bool           // committed txn ids
	nextP    int64
	nextC    int64
}

// NewModel returns an empty shadow model.
func NewModel() *Model {
	return &Model{
		Parents:  make(map[int64]string),
		Children: make(map[int64][2]interface{}),
		Ledger:   make(map[int64]bool),
	}
}

// TxnOps generates transaction k's operations from the rng stream and
// applies them to the model. Both sides of the harness call it: the
// child to drive the real engine, the parent to reconstruct the state
// the first N committed transactions must have produced. Generated
// transactions never violate a constraint (fresh keys, existing
// targets), so the only reason one can fail in the engine is a fault.
func (m *Model) TxnOps(rng *rand.Rand, k int64) []Op {
	ops := []Op{}
	nops := 1 + rng.Intn(3)
	for i := 0; i < nops; i++ {
		roll := rng.Intn(10)
		switch {
		case roll < 4 || len(m.Parents) == 0:
			m.nextP++
			id := m.nextP
			name := fmt.Sprintf("p%d", id)
			ops = append(ops, Op{Kind: opInsertParent, ID: id})
			m.Parents[id] = name
		case roll < 7:
			pid := m.pickParent(rng)
			m.nextC++
			id := m.nextC
			val := fmt.Sprintf("v%d-%d", k, i)
			ops = append(ops, Op{Kind: opInsertChild, ID: id, ParentID: pid, Val: val})
			m.Children[id] = [2]interface{}{pid, val}
		case roll < 9 && len(m.Children) > 0:
			id := m.pickChild(rng)
			val := fmt.Sprintf("u%d-%d", k, i)
			ops = append(ops, Op{Kind: opUpdateChild, ID: id, Val: val})
			c := m.Children[id]
			m.Children[id] = [2]interface{}{c[0], val}
		default:
			pid := m.pickParent(rng)
			ops = append(ops, Op{Kind: opDeleteParent, ID: pid})
			delete(m.Parents, pid)
			for cid, c := range m.Children {
				if c[0].(int64) == pid {
					delete(m.Children, cid)
				}
			}
		}
	}
	m.Ledger[k] = true
	return ops
}

// pickParent deterministically selects an existing parent id.
func (m *Model) pickParent(rng *rand.Rand) int64 {
	ids := make([]int64, 0, len(m.Parents))
	for id := range m.Parents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

// pickChild deterministically selects an existing child id.
func (m *Model) pickChild(rng *rand.Rand) int64 {
	ids := make([]int64, 0, len(m.Children))
	for id := range m.Children {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

// ParentName is the deterministic UNIQUE name for a parent id.
func ParentName(id int64) string { return fmt.Sprintf("p%d", id) }

// ApplyTxn runs transaction k's ops against the engine — a database or a
// shard group — inside one transaction, committing at the end. ops come
// from TxnOps, so logical keys are resolved to row ids through the
// transaction's own reads.
func ApplyTxn(db relational.Engine, ops []Op, k int64) error {
	t := db.BeginTxn()
	abort := func(err error) error {
		_ = t.Rollback()
		return err
	}
	for _, o := range ops {
		switch o.Kind {
		case opInsertParent:
			if _, err := t.Insert("parent", map[string]relational.Value{
				"id":   relational.Int_(o.ID),
				"name": relational.String_(ParentName(o.ID)),
			}); err != nil {
				return abort(err)
			}
		case opInsertChild:
			if _, err := t.Insert("child", map[string]relational.Value{
				"id":        relational.Int_(o.ID),
				"parent_id": relational.Int_(o.ParentID),
				"val":       relational.String_(o.Val),
			}); err != nil {
				return abort(err)
			}
		case opUpdateChild:
			rid, err := lookupOne(t, "child", o.ID)
			if err != nil {
				return abort(err)
			}
			if err := t.UpdateRow("child", rid, map[string]relational.Value{
				"val": relational.String_(o.Val),
			}); err != nil {
				return abort(err)
			}
		case opDeleteParent:
			rid, err := lookupOne(t, "parent", o.ID)
			if err != nil {
				return abort(err)
			}
			if _, err := t.Delete("parent", rid); err != nil {
				return abort(err)
			}
		}
	}
	if _, err := t.Insert("ledger", map[string]relational.Value{
		"txn": relational.Int_(k),
	}); err != nil {
		return abort(err)
	}
	return t.Commit()
}

// lookupOne resolves a logical primary key to the single row id holding
// it, as seen by the transaction.
func lookupOne(t relational.Reader, table string, id int64) (relational.RowID, error) {
	ids, err := t.LookupEqual(table, []string{"id"}, []relational.Value{relational.Int_(id)})
	if err != nil {
		return 0, err
	}
	if len(ids) != 1 {
		return 0, fmt.Errorf("walcrash: %s id %d resolved to %d rows", table, id, len(ids))
	}
	return ids[0], nil
}

// ReplayModel reconstructs the shadow model after the first n committed
// transactions of the seeded workload.
func ReplayModel(seed int64, n int64) *Model {
	m := NewModel()
	rng := rand.New(rand.NewSource(seed))
	for k := int64(1); k <= n; k++ {
		m.TxnOps(rng, k)
	}
	return m
}

// Dump flattens a recovered database into canonical key->row strings
// per table, the representation compared against Model.Dump. Engine row
// ids are deliberately absent: replay may assign them differently than
// the original run's interleaving with rolled-back allocations did.
func Dump(db relational.Reader) (map[string]map[int64]string, error) {
	out := map[string]map[int64]string{
		"parent": {},
		"child":  {},
		"ledger": {},
	}
	keyCol := map[string]int{"parent": 0, "child": 0, "ledger": 0}
	for table, rows := range out {
		dup := false
		err := db.Scan(table, func(r *relational.Row) bool {
			key := r.Values[keyCol[table]].Int
			if _, exists := rows[key]; exists {
				dup = true
				return false
			}
			parts := make([]string, len(r.Values))
			for i, v := range r.Values {
				parts[i] = v.EncodeKey()
			}
			rows[key] = strings.Join(parts, "|")
			return true
		})
		if err != nil {
			return nil, err
		}
		if dup {
			return nil, fmt.Errorf("walcrash: duplicate primary key in recovered %s", table)
		}
	}
	return out, nil
}

// Dump renders the model in the same canonical form as Dump(db).
func (m *Model) Dump() map[string]map[int64]string {
	out := map[string]map[int64]string{
		"parent": {},
		"child":  {},
		"ledger": {},
	}
	for id, name := range m.Parents {
		out["parent"][id] = relational.Int_(id).EncodeKey() + "|" + relational.String_(name).EncodeKey()
	}
	for id, c := range m.Children {
		out["child"][id] = relational.Int_(id).EncodeKey() + "|" +
			relational.Int_(c[0].(int64)).EncodeKey() + "|" + relational.String_(c[1].(string)).EncodeKey()
	}
	for k := range m.Ledger {
		out["ledger"][k] = relational.Int_(k).EncodeKey()
	}
	return out
}
