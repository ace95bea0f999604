package relational_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/tpch"
)

type inserterFunc func(table string, row []relational.Value) (relational.RowID, error)

func (f inserterFunc) InsertRow(table string, row []relational.Value) (relational.RowID, error) {
	return f(table, row)
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
			return tpch.Generate(inserterFunc(func(table string, row []relational.Value) (relational.RowID, error) {
				// Every 1,000 rows, and on the last row before each batch
				// commits (the high-water mark of a window).
				if n%1000 == 0 || n%relational.LoadBatchRows == relational.LoadBatchRows-1 {
					if r := versionStats(db).ResidentRows; r > max {
						max = r
					}
				}
				n++
				return sink.InsertRow(table, row)
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
// live heap the load added per row (heap_B/row), the bytes the load
// allocated per row (alloc_B/row) and the duration of one Reclaim pass
// over the loaded store (reclaim_us), which runs under the exclusive
// latch. It fails above 60 B of heap per row: string index keys and
// slice buckets kept ≈ 176–182 B, hashed keys in a one-id map and a
// many-id map ≈ 101 B, a sorted id column with a slot column beside it,
// in place of a row→slot map and an order slice, ≈ 80 B, and index
// entries folded out of those maps into sorted runs by each checkpoint
// pass ≈ 50–54 B. It fails above 990 B allocated per row (the reading
// below plus 15 %): a generator building a map per row, a WAL body
// regrown by doubling and a parent row copied out of its page for every
// key check allocated ≈ 1,760 B; positional rows, exactly sized bodies
// and checks decoding in place ≈ 860.
func BenchmarkColdRowFootprint(b *testing.B) {
	schema, err := tpch.Schema()
	if err != nil {
		b.Fatal(err)
	}
	var heapPerRow, allocPerRow, reclaimUs float64
	for range b.N {
		var before, loaded, after runtime.MemStats
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
		runtime.ReadMemStats(&loaded)
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapPerRow = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(stats.Rows)
		allocPerRow = float64(loaded.TotalAlloc-before.TotalAlloc) / float64(stats.Rows)
		start := time.Now()
		db.Reclaim()
		reclaimUs = float64(time.Since(start).Microseconds())
		if err := db.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(heapPerRow, "heap_B/row")
	b.ReportMetric(allocPerRow, "alloc_B/row")
	b.ReportMetric(reclaimUs, "reclaim_us")
	if heapPerRow > 60 {
		b.Fatalf("heap_B/row %.1f > 60", heapPerRow)
	}
	if allocPerRow > 990 {
		b.Fatalf("alloc_B/row %.0f > 990", allocPerRow)
	}
}

// BenchmarkHotRowFootprint measures what an in-memory database keeps
// per row, every row hot: it Loads tpch.RowsForMB(300) (75,630 rows)
// with no WAL, runs Reclaim and the GC, and reports the live heap the
// load added per row (heap_B/row). It fails above 250 B of heap per
// row: a version holding a []Value of 40 B values kept ≈ 407 B; a
// version holding its row's payload bytes ≈ 190.
func BenchmarkHotRowFootprint(b *testing.B) {
	schema, err := tpch.Schema()
	if err != nil {
		b.Fatal(err)
	}
	var heapPerRow float64
	for range b.N {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := relational.NewDatabase(schema)
		stats, err := db.Load(func(sink relational.Inserter) error {
			return tpch.Generate(sink, tpch.RowsForMB(300))
		})
		if err != nil {
			b.Fatal(err)
		}
		db.Reclaim()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heapPerRow = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(stats.Rows)
		runtime.KeepAlive(db)
	}
	b.ReportMetric(heapPerRow, "heap_B/row")
	if heapPerRow > 250 {
		b.Fatalf("heap_B/row %.1f > 250", heapPerRow)
	}
}

// TestLineitemInsertAllocs pins what a lineitem insert, its values
// named, allocates in a transaction of its own (tpch MB 1, in memory). The foreign key's column positions
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
		txn := db.Begin()
		if _, err := txn.Insert("lineitem", row); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if n > 7 {
		t.Fatalf("a lineitem insert allocates %v times, want at most 7", n)
	}
}

// TestLineitemInsertRowAllocs is TestLineitemInsertAllocs for a row
// given in column order, as a generator emits it, through an explicit
// transaction: five allocations, each the write's own — the transaction,
// its undo log, the version and its payload, and the commit request (a
// one-transaction group's member list and WAL body list live in it). The
// foreign key probe and the uniqueness check allocate nothing.
func TestLineitemInsertRowAllocs(t *testing.T) {
	db, err := tpch.NewDatabaseMB(1)
	if err != nil {
		t.Fatal(err)
	}
	row := []relational.Value{
		relational.Int_(0), relational.Null(), relational.Int_(7),
		relational.Float_(3), relational.Float_(12.5), relational.String_("pinned"),
	}
	line := int64(1000)
	n := testing.AllocsPerRun(200, func() {
		line++
		row[1] = relational.Int_(line)
		txn := db.Begin()
		if _, err := txn.InsertRow("lineitem", row); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 && !relational.RaceEnabled {
		t.Fatalf("a positional lineitem insert allocates %v times, want at most 5", n)
	}
}
