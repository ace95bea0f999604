package server

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/relational"
	"repro/internal/tpch"
)

// seedConfig is a tpch view large enough to span several load batches
// and checkpoint windows.
var seedConfig = ViewConfig{Name: "tpch", Dataset: "tpch", MB: 100}

// sortedDump renders every visible row of every table as
// "table|id|v1,v2,..", sorted.
func sortedDump(t *testing.T, rd relational.Reader) []string {
	t.Helper()
	var out []string
	for _, name := range rd.Schema().TableNames() {
		err := rd.Scan(name, func(r *relational.Row) bool {
			line := fmt.Sprintf("%s|%d|", name, r.ID)
			for _, v := range r.Values {
				line += v.EncodeKey() + ","
			}
			out = append(out, line)
			return true
		})
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
	sort.Strings(out)
	return out
}

// addDurable boots one registry over dataDir and adds the seed view.
func addDurable(t *testing.T, dataDir string, shards int) (*Registry, *View, error) {
	t.Helper()
	reg := NewRegistry()
	reg.DataDir = dataDir
	reg.DefaultShards = shards
	reg.WALOptions.PageCacheBytes = 256 << 10
	v, err := reg.Add(seedConfig)
	return reg, v, err
}

// cleanSeedDump is what an in-memory seed of the same view holds.
func cleanSeedDump(t *testing.T, shards int) []string {
	t.Helper()
	reg := NewRegistry()
	reg.DefaultShards = shards
	v, err := reg.Add(seedConfig)
	if err != nil {
		t.Fatal(err)
	}
	return sortedDump(t, v.Filter.Exec.DB)
}

func forShardCounts(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, shards) })
	}
}

// TestRestartNeverReseeds: Add on an already-seeded directory runs the
// generator zero times — no statement executed, no transaction begun
// before the first request — and serves the dump the first boot seeded
// plus what was applied since.
func TestRestartNeverReseeds(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		dataDir := t.TempDir()
		reg, v, err := addDurable(t, dataDir, shards)
		if err != nil {
			t.Fatal(err)
		}
		rows := tpch.RowsForMB(seedConfig.MB)
		total := rows.Regions + rows.Nations + rows.Customers + rows.Orders + rows.Lineitems
		if v.Seed == nil || v.Seed.Rows != total || v.Seed.Checkpoints < 3 {
			t.Fatalf("first boot seed report %+v, want %d rows over several passes", v.Seed, total)
		}
		if _, err := os.Stat(filepath.Join(dataDir, "tpch", seedMarker)); !os.IsNotExist(err) {
			t.Fatalf("seed marker survives a completed seed (stat err %v)", err)
		}
		eng := v.Filter.Exec.DB
		if got, want := sortedDump(t, eng), cleanSeedDump(t, shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed durable seed differs from the in-memory seed (%d vs %d rows)", len(got), len(want))
		}
		if res, err := v.Filter.Apply(tpch.InsertLineitemUpdate(7, 99)); err != nil || !res.Accepted {
			t.Fatalf("apply: %+v %v", res, err)
		}
		want := sortedDump(t, eng)
		if err := reg.CloseWALs(); err != nil {
			t.Fatal(err)
		}

		reg2, v2, err := addDurable(t, dataDir, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer reg2.CloseWALs()
		if v2.Seed != nil {
			t.Fatalf("restart ran the generator: %+v", v2.Seed)
		}
		if st := v2.Filter.Exec.DB.Stats(); st.StatementsExecuted != 0 || st.TxnsStarted != 0 {
			t.Fatalf("restart executed %d statements in %d transactions before the first request",
				st.StatementsExecuted, st.TxnsStarted)
		}
		if got := sortedDump(t, v2.Filter.Exec.DB); !reflect.DeepEqual(got, want) {
			t.Fatalf("restart serves %d rows, first boot left %d", len(got), len(want))
		}
	})
}

// TestInterruptedSeedIsRedone aborts a seed mid-way — a commit that
// fails after two batches, and a checkpoint failing inside the first
// seed pass — and requires the next Add over the same directory to
// recognise the half-seeded directory and reseed it to the clean dump.
// Each subtest is named for the failpoint its fault replaced.
func TestInterruptedSeedIsRedone(t *testing.T) {
	for _, c := range []struct {
		name string
		// fault is the spec for that many shards. Record writes let two
		// batches per shard pass; heap writes start with the seed's first
		// pass, since the image each shard checkpoints at open is empty.
		fault func(shards int) string
	}{
		{"wal.append.before", func(shards int) string { return fmt.Sprintf("write:segment=error@%d", 2*shards+1) }},
		{"checkpoint.write", func(int) string { return "write:heap=error@1" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			forShardCounts(t, func(t *testing.T, shards int) {
				faults := &pagestore.FaultFS{}
				relational.FileSystem = faults
				defer func() { relational.FileSystem = pagestore.OS }()
				dataDir := t.TempDir()
				if err := faults.Arm(c.fault(shards)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := addDurable(t, dataDir, shards); err == nil {
					t.Fatal("seed survived the injected fault")
				}
				if err := faults.Arm(""); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(dataDir, "tpch", seedMarker)); err != nil {
					t.Fatalf("aborted seed left no marker: %v", err)
				}

				reg, v, err := addDurable(t, dataDir, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer reg.CloseWALs()
				if v.Seed == nil {
					t.Fatal("half-seeded directory was recovered, not reseeded")
				}
				if got, want := sortedDump(t, v.Filter.Exec.DB), cleanSeedDump(t, shards); !reflect.DeepEqual(got, want) {
					t.Fatalf("reseeded view holds %d rows, a clean seed %d", len(got), len(want))
				}
			})
		})
	}
}

// TestMarkerlessDirectoryIsRecovered: a directory holding pages and WAL
// segments but no seed marker — the whole dataset materialised, then
// OpenWAL — is recovered as it is, never wiped or reseeded.
func TestMarkerlessDirectoryIsRecovered(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "tpch")
	old, err := tpch.NewDatabaseMB(seedConfig.MB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.OpenWAL(dir, relational.WALOptions{}); err != nil {
		t.Fatal(err)
	}
	txn := old.Begin()
	if _, err := txn.Insert("region", map[string]relational.Value{
		"r_regionkey": relational.Int_(77), "r_name": relational.String_("ATLANTIS"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := sortedDump(t, old)
	if err := old.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	keepsake := filepath.Join(dir, "keepsake")
	if err := os.WriteFile(keepsake, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg, v, err := addDurable(t, dataDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.CloseWALs()
	if v.Seed != nil {
		t.Fatalf("markerless directory was reseeded: %+v", v.Seed)
	}
	if _, err := os.Stat(keepsake); err != nil {
		t.Fatalf("markerless directory was wiped: %v", err)
	}
	if v.Recovery == nil || v.Recovery.CheckpointRows == 0 || v.Recovery.ReplayedTxns != 1 {
		t.Fatalf("recovery report %+v: want the paged seed plus one replayed insert", v.Recovery)
	}
	if got := sortedDump(t, v.Filter.Exec.DB); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d rows, the old binary left %d", len(got), len(want))
	}
}

// TestViewNameIsNotADirectoryEscape: a view's name becomes its directory
// under DataDir (which an interrupted seed wipes), so the dot names are
// refused like any other invalid name.
func TestViewNameIsNotADirectoryEscape(t *testing.T) {
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	for _, name := range []string{".", "..", "a/b", ""} {
		if _, err := reg.Add(ViewConfig{Name: name, Dataset: "book"}); err == nil {
			t.Errorf("view name %q was accepted", name)
		}
	}
}
