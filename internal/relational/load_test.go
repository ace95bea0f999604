package relational_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/tpch"
)

type inserterFunc func(table string, values map[string]relational.Value) (relational.RowID, error)

func (f inserterFunc) Insert(table string, values map[string]relational.Value) (relational.RowID, error) {
	return f(table, values)
}

// versionStats reads the version store's shape through a snapshot.
func versionStats(db *relational.Database) relational.VersionStats {
	snap := db.Snapshot()
	defer snap.Close()
	return snap.VersionStats()
}

// TestLoadResidentRowsBounded streams tpch seeds into durable engines
// behind a 256 KiB pool and counts, all the way through, how many rows
// keep a version in memory: never more than one checkpoint window plus
// one batch, and no more at MB 300 (75,630 rows) than at MB 100 (25,230)
// — what a load keeps resident is a window, not the dataset. After the
// final pass, with no reader open, no version is left at all. Counts
// only: no clock, no RSS.

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
					if r := versionStats(db).ResidentRows; r > max {
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
		if vs := versionStats(db); vs.ResidentRows != 0 || vs.Versions != 0 {
			t.Fatalf("MB %d: %d rows still resident, %d versions, after the final pass", mb, vs.ResidentRows, vs.Versions)
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

// BenchmarkColdRowFootprint measures what a paged database keeps in
// memory per cold row: it Loads tpch.RowsForMB(300) (75,630 rows) into a
// durable database behind a 256 KiB pool, runs the GC, and reports the
// live heap the load added per row (heap_B/row) and the duration of one
// Reclaim pass over the loaded store (reclaim_us), which runs under the
// exclusive latch.
func BenchmarkColdRowFootprint(b *testing.B) {
	schema, err := tpch.Schema()
	if err != nil {
		b.Fatal(err)
	}
	var heapPerRow, reclaimUs float64
	for range b.N {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := relational.NewDatabase(schema)
		if _, err := db.OpenWAL(b.TempDir(), relational.WALOptions{PageCacheBytes: 256 << 10}); err != nil {
			b.Fatal(err)
		}
		stats, err := db.Load(func(sink relational.Inserter) error {
			return tpch.Generate(sink, tpch.RowsForMB(300))
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapPerRow = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(stats.Rows)
		start := time.Now()
		db.Reclaim()
		reclaimUs = float64(time.Since(start).Microseconds())
		if err := db.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(heapPerRow, "heap_B/row")
	b.ReportMetric(reclaimUs, "reclaim_us")
}

// TestLineitemInsertAllocs pins what an autocommitted lineitem insert
// allocates (tpch MB 1, in memory). The foreign key's column positions
// are computed once per table and its probe values live on the stack,
// so checking lineitem_orders_fk allocates only its lookup's result; an
// index key is a hash, so it allocates no key string, and a unique
// key's entry no bucket.
func TestLineitemInsertAllocs(t *testing.T) {
	db, err := tpch.NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	row := map[string]relational.Value{
		"l_orderkey":      relational.Int_(0),
		"l_partkey":       relational.Int_(7),
		"l_quantity":      relational.Float_(3),
		"l_extendedprice": relational.Float_(12.5),
		"l_comment":       relational.String_("pinned"),
	}
	line := int64(1000)
	n := testing.AllocsPerRun(200, func() {
		line++
		row["l_linenumber"] = relational.Int_(line)
		if _, err := db.Insert("lineitem", row); err != nil {
			t.Fatal(err)
		}
	})
	if n > 7 {
		t.Fatalf("a lineitem insert allocates %v times, want at most 7", n)
	}
}
