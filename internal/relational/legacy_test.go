package relational_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/relational"
	"repro/internal/shard"
)

// TestRecoveryRepairsLostPreparedTail opens a copy of the 2-shard data
// directory the binary before the one log wrote
// (internal/shard/testdata/legacy-xlogdir) with shard 1's last frame cut
// off — the cross-shard commit whose record a power loss took from that
// shard's never-flushed tail. The one-time migration must restore it
// from the coordinator log's copy, so the group reads what the old
// binary read from the intact directory, and so does a reopen.
func TestRecoveryRepairsLostPreparedTail(t *testing.T) {
	fixture := filepath.Join("..", "shard", "testdata", "legacy-xlogdir")
	raw, err := os.ReadFile(filepath.Join(fixture, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Dump []string `json:"dump"`
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(fixture, "data")
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-1", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("shard 1 segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last, off := int64(0), int64(0) // where the last frame begins
	relational.ScanFrames(data, func(payload []byte) bool {
		last, off = off, off+8+int64(len(payload))
		return true
	})
	if data[last+8] != 'X' {
		t.Fatalf("shard 1's last frame is not a cross-shard record")
	}
	if err := os.Truncate(seg, last); err != nil {
		t.Fatal(err)
	}

	schema, err := bookdb.Schema(relational.DeleteCascade)
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"repaired", "reopened"} {
		db, _, err := shard.New(schema, 2, shard.Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		got := dumpEngine(t, db)
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp.Dump) {
			t.Fatalf("%s:\n got %v\nwant %v", when, got, exp.Dump)
		}
	}
}

// dumpEngine renders every visible row as "table|id|v1,v2,..", the form
// the fixture's expect.json holds.
func dumpEngine(t *testing.T, rd relational.Reader) []string {
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
	return out
}
