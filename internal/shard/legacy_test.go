package shard

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// legacyFixture copies testdata/legacy-xlogdir/data — a 2-shard data
// directory the binary before the one log wrote: the seeded bookstore
// checkpointed into each shard's pages; past the checkpoint a
// single-shard commit, cross-shard commit A, a cross-shard commit B whose
// coordinator record was never written (its shard records are there,
// prepared and never committed) and cross-shard commit C, whose records
// end both shard logs — into a fresh directory, and returns it with what
// that binary read back from it (expect.json).
func legacyFixture(t *testing.T) (dir string, exp struct {
	Dump          []string `json:"dump"`
	CommittedXids []uint64 `json:"committed_xids"`
}) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-xlogdir", "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-xlogdir", "data"), dir)
	return dir, exp
}

// legacyLeft lists what the earlier layout's files a directory still
// holds.
func legacyLeft(t *testing.T, dir string) []string {
	t.Helper()
	var left []string
	for _, pattern := range []string{"xlog*", "shard-*/wal-*.seg", "shard-*/recycle-*.rseg"} {
		names, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		left = append(left, names...)
	}
	return left
}

// openLegacy opens dir as the fixture's 2-shard group and requires the
// fixture's dump and no file of the earlier layout left behind.
func openLegacy(t *testing.T, dir string, want []string) *DB {
	t.Helper()
	db, _ := newGroupDir(t, 2, dir)
	if got := dump(t, db); !reflect.DeepEqual(got, want) {
		db.CloseWAL()
		t.Fatalf("recovered:\n got %v\nwant %v", got, want)
	}
	if left := legacyLeft(t, dir); len(left) > 0 {
		db.CloseWAL()
		t.Fatalf("the earlier layout's files survived the open: %v", left)
	}
	return db
}

// TestLegacyShardDirOpens opens the fixture: the old shard logs replay
// under the coordinator log's verdicts (A and C whole on both shards, B
// on neither), the result is checkpointed and the old files are gone,
// and a checkpoint, a commit and a reopen later it still reads the same.
func TestLegacyShardDirOpens(t *testing.T) {
	dir, exp := legacyFixture(t)
	db := openLegacy(t, dir, exp.Dump)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	txn := db.BeginTxn()
	insertPub(t, txn, pubOnShard(db, 0, "N"), "new layout 0")
	insertPub(t, txn, pubOnShard(db, 1, "N"), "new layout 1")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2 := openLegacy(t, dir, want)
	db2.CloseWAL()
}

// TestLegacyCoordinatorLogRecovers rewrites the fixture's coordinator log
// the way the binary before THAT format wrote it — one bare xid per
// record, the shard logs flushed at prepare — and requires the same
// state: the shard logs' records of committed xids replay, B's are
// dropped.
func TestLegacyCoordinatorLogRecovers(t *testing.T) {
	dir, exp := legacyFixture(t)
	var bare []byte
	for _, xid := range exp.CommittedXids {
		payload := binary.AppendUvarint(nil, xid)
		bare = binary.LittleEndian.AppendUint32(bare, uint32(len(payload)))
		bare = binary.LittleEndian.AppendUint32(bare, crc32.ChecksumIEEE(payload))
		bare = append(bare, payload...)
	}
	if err := os.WriteFile(filepath.Join(dir, xlogName), bare, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openLegacy(t, dir, exp.Dump)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2 := openLegacy(t, dir, exp.Dump)
	db2.CloseWAL()
}

// appendXlogRecord frames one coordinator record in the format
// decodeXlogRecord reads.
func appendXlogRecord(buf []byte, xid uint64, parts []xlogPart) []byte {
	payload := binary.AppendUvarint([]byte{0}, xid)
	payload = binary.AppendUvarint(payload, uint64(len(parts)))
	for _, p := range parts {
		payload = binary.AppendUvarint(payload, uint64(p.shard))
		payload = binary.AppendUvarint(payload, p.seq)
		payload = binary.AppendUvarint(payload, uint64(len(p.frame)))
		payload = append(payload, p.frame...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzXlogRecordDecode holds the legacy coordinator record decoder to
// its contract: arbitrary bytes never panic and never make it hold more
// participants than the bytes could spell, and a payload that decodes
// re-encodes to a record that decodes the same.
func FuzzXlogRecordDecode(f *testing.F) {
	const header = 8
	frame := []byte("\x05\x00\x00\x00crc!frame")
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(binary.AppendUvarint(nil, 7))       // the format before redo was carried
	f.Add(binary.AppendUvarint(nil, 1<<63+5)) // ten-byte xid
	f.Add(appendXlogRecord(nil, 3, nil)[header:])
	f.Add(appendXlogRecord(nil, 9, []xlogPart{
		{shard: 0, seq: 41, frame: frame},
		{shard: 3, seq: 1 << 40, frame: frame[:0]},
	})[header:])
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})    // claims 2^32 participants
	f.Add([]byte{0, 1, 1, 0, 1, 0xff, 0xff, 0xff, 0x7f}) // claims a 256 MiB frame
	f.Fuzz(func(t *testing.T, data []byte) {
		xid, parts, ok := decodeXlogRecord(data, nil)
		if cap(parts) > len(data) {
			t.Fatalf("%d bytes decoded into room for %d participants", len(data), cap(parts))
		}
		if !ok {
			return
		}
		if xid == 0 {
			t.Fatal("decoded a zero xid")
		}
		if data[0] != 0 {
			// (Not necessarily the canonical varint: 0x87 0x00 is 7 too.)
			if got, n := binary.Uvarint(data); len(parts) != 0 || got != xid || n != len(data) {
				t.Fatalf("bare-xid payload %x decoded as xid %d with %d participants", data, xid, len(parts))
			}
			return
		}
		rec := appendXlogRecord(nil, xid, parts)
		valid := scanXlog(rec, func(xid2 uint64, again []xlogPart) {
			if xid2 != xid || !reflect.DeepEqual(append([]xlogPart(nil), again...), append([]xlogPart(nil), parts...)) {
				t.Fatalf("round-trip drift: xid %d %+v, then xid %d %+v", xid, parts, xid2, again)
			}
		})
		if valid != int64(len(rec)) {
			t.Fatalf("re-encoded record scanned %d of %d bytes", valid, len(rec))
		}
	})
}
