package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/relational"
	"repro/internal/tpch"
)

// seedDigest condenses a reader's contents: the row count and a hash
// over every row (table, id, values) in table then scan order — equal
// digests mean equal sorted dumps AND equal per-table scan order.
type seedDigest struct {
	Rows int    `json:"rows"`
	Hash string `json:"hash"`
}

func digestOf(t *testing.T, rd relational.Reader) seedDigest {
	t.Helper()
	h := sha256.New()
	n := 0
	for _, name := range rd.Schema().TableNames() {
		err := rd.Scan(name, func(r *relational.Row) bool {
			fmt.Fprintf(h, "%s|%d|", name, r.ID)
			for _, v := range r.Values {
				fmt.Fprintf(h, "%s,", v.EncodeKey())
			}
			fmt.Fprintln(h)
			n++
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
	return seedDigest{Rows: n, Hash: hex.EncodeToString(h.Sum(nil)[:16])}
}

// TestStreamedSeedMatchesParentFixture holds the streamed seed to what
// the materialise-then-copy seed produced at the commit before it
// (testdata/tpch100_seed.json: digests of tpch.NewDatabaseMB(100) and of
// shard.New(seed, 4)'s row-by-row copy at that commit): the same rows with the
// same ids in the same scan order, unsharded; and at 4 shards the same
// rows on the same shards under the same ids — in memory, streamed into
// a durable directory (batched transactions, checkpoint passes, rows
// left page-only behind a small pool), and again after reopening that
// directory.
func TestStreamedSeedMatchesParentFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/tpch100_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		MB        int          `json:"mb"`
		Unsharded seedDigest   `json:"unsharded"`
		Shards    []seedDigest `json:"shards"`
		Merged    seedDigest   `json:"merged"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Unsharded.Rows <= 2*relational.LoadCheckpointRows {
		t.Fatalf("fixture dataset (%d rows) does not span several checkpoint windows", want.Unsharded.Rows)
	}
	schema, err := tpch.Schema()
	if err != nil {
		t.Fatal(err)
	}
	fill := func(sink relational.Inserter) error { return tpch.Generate(sink, tpch.RowsForMB(want.MB)) }
	wal := relational.WALOptions{PageCacheBytes: 64 << 10}

	check := func(t *testing.T, db *DB, unsharded bool) {
		t.Helper()
		if unsharded {
			if got := digestOf(t, db); got != want.Unsharded {
				t.Fatalf("unsharded seed = %+v, parent fixture %+v", got, want.Unsharded)
			}
			return
		}
		for i, s := range db.shards {
			if got := digestOf(t, s); got != want.Shards[i] {
				t.Errorf("shard %d holds %+v, parent fixture %+v", i, got, want.Shards[i])
			}
		}
		if got := digestOf(t, db); got != want.Merged {
			t.Errorf("merged scan = %+v, parent fixture %+v", got, want.Merged)
		}
	}
	for _, n := range []int{1, len(want.Shards)} {
		t.Run(fmt.Sprintf("shards=%d/memory", n), func(t *testing.T) {
			db, _, err := New(schema, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Load(fill); err != nil {
				t.Fatal(err)
			}
			check(t, db, n == 1)
		})
		t.Run(fmt.Sprintf("shards=%d/durable", n), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), WAL: wal}
			db, _, err := New(schema, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := db.Load(fill)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rows != want.Unsharded.Rows || stats.Checkpoints < 3 {
				t.Fatalf("load stats %+v: want %d rows over several passes", stats, want.Unsharded.Rows)
			}
			snap := db.OpenSnapshot()
			if vs := snap.VersionStats(); vs.ResidentRows != 0 {
				t.Fatalf("%d rows still hold values after the final pass", vs.ResidentRows)
			}
			snap.Close()
			check(t, db, n == 1)
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			re, rec, err := New(schema, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.CloseWAL()
			for i, ri := range rec.Shards {
				if ri.ReplayedTxns != 0 {
					t.Errorf("shard %d replayed %d txns: the final pass should have covered the seed", i, ri.ReplayedTxns)
				}
			}
			check(t, re, n == 1)
		})
	}
}
