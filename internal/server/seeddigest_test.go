package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/shard"
)

// TestSeedDigests pins what a seed writes: each built-in dataset is
// loaded through datasetFor's generator into a durable engine behind a
// 256 KiB pool, as the daemon seeds it, and two digests are compared
// with fixed values: one over the row dump (table, row id and every
// value, sorted), one over every file the seed left in its data dir
// (path and bytes: the WAL segments, the page heap and directory, the
// FORMAT stamp). A generator that draws its random values in another
// order, a shard router that places a row elsewhere, or an encoder that
// writes other bytes changes a digest.
func TestSeedDigests(t *testing.T) {
	for _, c := range []struct {
		name          string
		vc            ViewConfig
		shards        int
		rows, dataDir string
	}{
		{"book", ViewConfig{Dataset: "book"}, 1,
			"7b1f3748359a0e88c271cc3d886efc242aeab949269bb39b6551ecab67f9f096",
			"b87516378a58116a160c5bf0e1cee8714c7770c16866009ec083b76554b38e65"},
		{"psd-100", ViewConfig{Dataset: "psd", Proteins: 100}, 1,
			"e1a7a3c698a812e10e03e429dbb5073e90ed7c8eaa67dd34772f00f5a4ef5712",
			"ee58d34beb80b433a41c1390fed39b8d9b2a0eab6a9410b88869a8b5bd258b97"},
		{"tpch-mb1", ViewConfig{Dataset: "tpch", MB: 1}, 1,
			"9b4c87bb44d119dce224855b28d26dfb62a06d31ad339eb5b7849858848733c9",
			"dd9000653d2763d908f0f501df21e38a7f91c3c20c7f6b8f2e4558925eda85ed"},
		{"tpch-mb20", ViewConfig{Dataset: "tpch", MB: 20}, 1,
			"93de1eae1b609cf2610443e3397a98cdd9e514f6af7ec35e1663fc50b5522928",
			"537787ee000834abd5869f4d52ba928c521858905050a1dda802e177fb754448"},
		{"tpch-mb20-shards-4", ViewConfig{Dataset: "tpch", MB: 20}, 4,
			"aeaa49802f7294061ee03a5a65f32efbdfa9d9cd220f1761719f382ac8d1fb76",
			"94ae1d67edfeb0ed6f65191c027579a66b602e004c5cb11790fe38b2bfd7f077"},
	} {
		t.Run(c.name, func(t *testing.T) {
			schema, fill, _, err := datasetFor(c.vc)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			opts := relational.WALOptions{PageCacheBytes: 256 << 10}
			var eng relational.Engine
			var load func(func(relational.Inserter) error) (relational.LoadStats, error)
			if c.shards > 1 {
				sdb, _, err := shard.New(schema, c.shards, shard.Options{Dir: dir, WAL: opts})
				if err != nil {
					t.Fatal(err)
				}
				eng, load = sdb, sdb.Load
			} else {
				db := relational.NewDatabase(schema)
				if _, err := db.OpenWAL(dir, opts); err != nil {
					t.Fatal(err)
				}
				eng, load = db, db.Load
			}
			if _, err := load(fill); err != nil {
				t.Fatal(err)
			}
			rows := digest(strings.Join(sortedDump(t, eng), "\n"))
			if err := eng.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			files := dirDigest(t, dir)
			t.Logf("rows %s, data dir %s", rows, files)
			if rows != c.rows {
				t.Errorf("row dump digest %s, want %s", rows, c.rows)
			}
			if files != c.dataDir {
				t.Errorf("data dir digest %s, want %s", files, c.dataDir)
			}
		})
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// dirDigest hashes every regular file under dir, by relative path and
// content, in lexical path order.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
