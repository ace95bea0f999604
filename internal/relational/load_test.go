package relational_test

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/tpch"
)

type inserterFunc func(table string, values map[string]relational.Value) (relational.RowID, error)

func (f inserterFunc) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	return f(table, values)
}

// TestLoadResidentRowsBounded streams tpch seeds into durable engines
// behind a 256 KiB pool and counts, all the way through, how many row
// heads hold their values in memory: never more than one checkpoint
// window plus one batch, and no more at MB 300 (75,630 rows) than at
// MB 100 (25,230) — what a load keeps resident is a window, not the
// dataset. Counts only: no clock, no RSS.
// residentRows counts the rows holding values in memory.
func residentRows(db *relational.Database) int {
	snap := db.Snapshot()
	defer snap.Close()
	return snap.VersionStats().ResidentRows
}

func TestLoadResidentRowsBounded(t *testing.T) {
	schema, err := tpch.Schema()
	if err != nil {
		t.Fatal(err)
	}
	peak := func(mb int) int {
		db := relational.NewDatabase(schema)
		if _, err := db.OpenWAL(t.TempDir(), relational.WALOptions{PageCacheBytes: 256 << 10}); err != nil {
			t.Fatal(err)
		}
		defer db.CloseWAL()
		max, n := 0, 0
		stats, err := db.Load(func(sink relational.Inserter) error {
			return tpch.Generate(inserterFunc(func(table string, values map[string]relational.Value) (relational.RowID, error) {
				// Every 1,000 rows, and on the last row before each batch
				// commits (the high-water mark of a window).
				if n%1000 == 0 || n%relational.LoadBatchRows == relational.LoadBatchRows-1 {
					if r := residentRows(db); r > max {
						max = r
					}
				}
				n++
				return sink.Insert(table, values)
			}), tpch.RowsForMB(mb))
		})
		if err != nil {
			t.Fatalf("MB %d: %v", mb, err)
		}
		if stats.Rows != n || db.TotalRows() != n {
			t.Fatalf("MB %d: generator emitted %d rows, load committed %d, database holds %d", mb, n, stats.Rows, db.TotalRows())
		}
		if r := residentRows(db); r != 0 {
			t.Fatalf("MB %d: %d rows still resident after the final pass", mb, r)
		}
		return max
	}
	bound := relational.LoadCheckpointRows + relational.LoadBatchRows
	p100, p300 := peak(100), peak(300)
	t.Logf("peak resident rows: MB 100 %d, MB 300 %d (window %d + batch %d)",
		p100, p300, relational.LoadCheckpointRows, relational.LoadBatchRows)
	if p100 < relational.LoadBatchRows {
		t.Fatalf("peak %d is below one batch: the resident-row count is not counting", p100)
	}
	if p100 > bound || p300 > bound {
		t.Fatalf("peak resident rows %d / %d exceed one window + one batch (%d)", p100, p300, bound)
	}
	if p300 > p100 {
		t.Fatalf("resident rows grew with the dataset: %d at MB 100, %d at MB 300", p100, p300)
	}
}
