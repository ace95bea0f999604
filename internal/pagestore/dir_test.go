package pagestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDirFrameClaimedLength: a header claiming more bytes than the file
// holds is caught before anything is allocated for it, and recovery
// treats it as the torn tail it is.
func TestDirFrameClaimedLength(t *testing.T) {
	huge := make([]byte, pageFrameHeader+16)
	binary.LittleEndian.PutUint32(huge, maxDirRecord)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := nextDirFrame(huge); err == nil {
			t.Fatal("a 64 MiB claim over 16 bytes was accepted")
		}
	}); allocs != 0 {
		t.Fatalf("rejecting a claimed length allocated %v times", allocs)
	}

	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Install(1, []Install{{Table: "t", Rows: rowsOf(5, 0)}}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(dir, dirLogName(1))
	good, _ := os.ReadFile(logPath)
	if err := os.WriteFile(logPath, append(append([]byte(nil), good...), huge...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, dir, Options{})
	s2.Close()
	if rec.Seq != 1 {
		t.Fatalf("torn claim in the log: recovered seq %d, want 1", rec.Seq)
	}
	if fi, _ := os.Stat(logPath); fi.Size() != int64(len(good)) {
		t.Fatalf("torn claim not truncated: %d bytes, want %d", fi.Size(), len(good))
	}
}

// checkDirRecord decodes one payload and, when it decodes, holds the
// decoder's contract: allocation bounded by the payload, and a re-encode
// in the current kinds decodes to the same record.
func checkDirRecord(t *testing.T, payload []byte) {
	r, err := decodeDirRecord(payload)
	if err != nil {
		return
	}
	if cap(r.pages) > len(payload)/4 || cap(r.freed) > len(payload) {
		t.Fatalf("%d-byte payload decoded into %d pages / %d freed slots of capacity", len(payload), cap(r.pages), cap(r.freed))
	}
	frame := encodeDirRecord(r)
	again, err := decodeDirRecord(frame[pageFrameHeader:])
	if err != nil {
		t.Fatalf("re-encoded record failed to decode: %v", err)
	}
	if !reflect.DeepEqual(r, again) {
		t.Fatalf("round-trip drift:\n%+v\n%+v", r, again)
	}
}

// FuzzDirRecordDecode: directory bytes are read back after a crash, so
// decoding is total — any input, as a file of frames or as a bare
// payload, returns an error or a record and never panics.
func FuzzDirRecordDecode(f *testing.F) {
	pages := []PageInfo{{Slot: 0, Slots: 1, Seq: 3, Table: "t"}, {Slot: 4, Slots: 2, Seq: 3, Table: "lineitem"}}
	current := encodeDirRecord(dirRecord{id: 7, seq: 3, pages: pages, freed: []uint32{1, 2}})
	f.Add(current)
	f.Add(current[:len(current)-3])
	f.Add(encodeDirRecord(dirRecord{base: true, id: 9, seq: 4, pages: pages}))
	f.Add(encodeDirRecord(dirRecord{id: 8, seq: 5, pages: []PageInfo{{Slot: 1 << 21, Slots: 3, Seq: 1 << 40, Table: "u"}}}))
	huge := make([]byte, pageFrameHeader+4)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		for rest := data; len(rest) > 0; {
			payload, n, err := nextDirFrame(rest)
			if err != nil {
				break
			}
			checkDirRecord(t, payload)
			rest = rest[n:]
		}
		checkDirRecord(t, data)
	})
}
