package relational_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/tpch"
)

// oldDirFixture is a data dir (format 2) written by the engine as it
// stood before a version held its row as payload bytes, when versions
// held []Value and the WAL and checkpoint re-encoded them: tpch MB 1
// loaded and checkpointed, then a WAL tail the open must replay (see
// dirGolden for what it holds). oldDirGolden is what a reader saw in
// that engine after reopening a copy of the dir.
const (
	oldDirFixture = "testdata/olddir-tpch1"
	oldDirGolden  = "testdata/olddir-tpch1.golden.json"
)

// dirGolden is a database's contents as a reader sees them: every
// table's rows in scan order, and the answer of every primary-key and
// foreign-key lookup those rows imply (parents by a child's key, and
// the children sharing it).
type dirGolden struct {
	Rows    map[string][]string `json:"rows"`    // table → "id|kind:value|…" per row, in scan order
	Lookups []string            `json:"lookups"` // "table(cols)=vals → ids", sorted
}

// takeGolden reads db's dirGolden through its Reader surface.
func takeGolden(t testing.TB, db *relational.Database) dirGolden {
	t.Helper()
	g := dirGolden{Rows: make(map[string][]string)}
	render := func(vals []relational.Value) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%d:%s", v.Kind, v.String())
		}
		return strings.Join(parts, "|")
	}
	seen := make(map[string]bool)
	lookup := func(table string, cols []string, vals []relational.Value) {
		for _, v := range vals {
			if v.IsNull() {
				return
			}
		}
		q := fmt.Sprintf("%s(%s)=%s", table, strings.Join(cols, ","), render(vals))
		if seen[q] {
			return
		}
		seen[q] = true
		ids, err := db.LookupEqual(table, cols, vals)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		g.Lookups = append(g.Lookups, fmt.Sprintf("%s → %v", q, ids))
	}
	pick := func(def *relational.TableDef, r *relational.Row, cols []string) []relational.Value {
		out := make([]relational.Value, len(cols))
		for i, c := range cols {
			ci, _ := def.ColumnIndex(c)
			out[i] = r.Values[ci]
		}
		return out
	}
	for _, def := range db.Schema().Tables() {
		var rows []*relational.Row
		if err := db.Scan(def.Name, func(r *relational.Row) bool {
			rows = append(rows, r)
			g.Rows[def.Name] = append(g.Rows[def.Name], fmt.Sprintf("%d|%s", r.ID, render(r.Values)))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if len(def.PrimaryKey) > 0 {
				lookup(def.Name, def.PrimaryKey, pick(def, r, def.PrimaryKey))
			}
			for _, fk := range def.ForeignKeys {
				vals := pick(def, r, fk.Columns)
				lookup(fk.RefTable, fk.RefColumns, vals)
				lookup(def.Name, fk.Columns, vals)
			}
		}
	}
	slices.Sort(g.Lookups)
	return g
}

// copyDir copies a flat directory of files, so that opening the copy
// (which extends its active segment) leaves the fixture as it is.
func copyDir(t testing.TB, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpensOldDataDir opens a copy of a data dir the earlier row layout
// wrote: its pages restore, its WAL tail replays (inserts, an update,
// deletes and a cascade over page-only rows), and every row and every
// key lookup reads as it did in that engine. Then a checkpoint pages
// the replayed rows with the current engine, and a reopen still reads
// the same.
func TestOpensOldDataDir(t *testing.T) {
	b, err := os.ReadFile(oldDirGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want dirGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	schema, err := tpch.Schema()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, oldDirFixture, dir)
	open := func() *relational.Database {
		db := relational.NewDatabase(schema)
		info, err := db.OpenWAL(dir, relational.WALOptions{SegmentBytes: 8 << 10, PageCacheBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if info.CheckpointRows == 0 {
			t.Fatalf("no rows restored from the pages: %+v", info)
		}
		return db
	}
	check := func(db *relational.Database, when string) {
		got := takeGolden(t, db)
		for table, rows := range want.Rows {
			if !reflect.DeepEqual(got.Rows[table], rows) {
				t.Fatalf("%s: table %s reads %d rows unlike the golden's %d (first differing: %s)",
					when, table, len(got.Rows[table]), len(rows), firstDiff(got.Rows[table], rows))
			}
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d tables hold rows, the golden %d", when, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(got.Lookups, want.Lookups) {
			t.Fatalf("%s: %d lookups, the golden %d (first differing: %s)",
				when, len(got.Lookups), len(want.Lookups), firstDiff(got.Lookups, want.Lookups))
		}
	}

	db := relational.NewDatabase(schema)
	info, err := db.OpenWAL(dir, relational.WALOptions{SegmentBytes: 8 << 10, PageCacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointRows == 0 || info.ReplayedTxns == 0 || info.ReplayedOps == 0 || info.TornTail {
		t.Fatalf("the fixture should restore pages and replay a WAL tail: %+v", info)
	}
	t.Logf("restored %d rows, replayed %d txns (%d ops)", info.CheckpointRows, info.ReplayedTxns, info.ReplayedOps)
	check(db, "after replay")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(db, "after a checkpoint")
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.CloseWAL()
	check(db, "after a reopen")
}

// firstDiff names the first entry where got and want part.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("%q, want %q", got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(got), len(want))
}
