package pagestore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// storeFiles reads every file under dir, by name.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestDirFrameClaimedLength: a header claiming more bytes than the file
// holds is caught before anything is allocated for it.
func TestDirFrameClaimedLength(t *testing.T) {
	huge := make([]byte, pageFrameHeader+16)
	binary.LittleEndian.PutUint32(huge, maxDirRecord)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := decodeDirectory(huge); err == nil {
			t.Fatal("a 64 MiB claim over 16 bytes was accepted")
		}
	}); allocs != 0 {
		t.Fatalf("rejecting a claimed length allocated %v times", allocs)
	}
}

// installedStore returns a store directory holding three installs, and
// its directory file.
func installedStore(t *testing.T) (dir string, directory []byte) {
	t.Helper()
	dir = t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := s.Install(seq, []Install{{Table: "t", Rows: rowsOf(50, int64(seq)*100)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	directory, err := os.ReadFile(filepath.Join(dir, dirFileName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, directory
}

// refusedUntouched copies the store under dir with damaged as its
// directory file and requires Open to refuse the copy with
// ErrCorruptDirectory, leaving every file byte for byte as it was.
func refusedUntouched(t *testing.T, dir string, damaged []byte) {
	t.Helper()
	copied := t.TempDir()
	for file, data := range storeFiles(t, dir) {
		if file == dirFileName {
			data = string(damaged)
		}
		if err := os.WriteFile(filepath.Join(copied, file), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := storeFiles(t, copied)
	if s, _, err := Open(copied, Options{}); !errors.Is(err, ErrCorruptDirectory) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open gave %v, want ErrCorruptDirectory", err)
	}
	if after := storeFiles(t, copied); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused Open changed the store's files")
	}
}

// TestStoreTornDirectoryTail: the directory is only ever replaced whole,
// so one cut mid-frame is not a torn tail to truncate away: Open refuses
// it and the store keeps every byte.
func TestStoreTornDirectoryTail(t *testing.T) {
	dir, directory := installedStore(t)
	refusedUntouched(t, dir, directory[:len(directory)-3])
}

// TestCorruptDirectoryRefused: a flipped byte, trailing bytes, a length
// claim past the end of the file, an empty file and a page past the end
// of the heap are each refused with ErrCorruptDirectory, touching
// nothing.
func TestCorruptDirectoryRefused(t *testing.T) {
	dir, good := installedStore(t)
	huge := make([]byte, pageFrameHeader+16)
	binary.LittleEndian.PutUint32(huge, maxDirRecord)
	for name, damaged := range map[string][]byte{
		"flipped byte":   append(good[:len(good)-1:len(good)-1], good[len(good)-1]^0x40),
		"trailing bytes": append(good[:len(good):len(good)], 0),
		"huge claim":     huge,
		"empty":          {},
		"beyond heap":    encodeDirectory(3, []PageInfo{{Slot: 1 << 20, Slots: 1, Seq: 3, Table: "t"}}),
	} {
		t.Run(name, func(t *testing.T) { refusedUntouched(t, dir, damaged) })
	}
}

// checkDirectory decodes one input and, when it decodes, holds the
// decoder's contract: allocation bounded by the payload, and a re-encode
// decodes to the same page table.
func checkDirectory(t *testing.T, data []byte) {
	seq, pages, err := decodeDirectory(data)
	if err != nil {
		return
	}
	if cap(pages) > len(data)/4 {
		t.Fatalf("%d-byte directory decoded into %d pages of capacity", len(data), cap(pages))
	}
	seq2, pages2, err := decodeDirectory(encodeDirectory(seq, pages))
	if err != nil {
		t.Fatalf("re-encoded directory failed to decode: %v", err)
	}
	if seq2 != seq || !reflect.DeepEqual(pages, pages2) {
		t.Fatalf("round-trip drift:\n%d %+v\n%d %+v", seq, pages, seq2, pages2)
	}
}

// FuzzDirRecordDecode: the directory file is read back after a crash, so
// decoding is total — any input returns an error or a page table and
// never panics.
func FuzzDirRecordDecode(f *testing.F) {
	pages := []PageInfo{{Slot: 0, Slots: 1, Seq: 3, Table: "t"}, {Slot: 4, Slots: 2, Seq: 3, Table: "lineitem"}}
	current := encodeDirectory(3, pages)
	f.Add(current)
	f.Add(current[:len(current)-3])
	f.Add(encodeDirectory(0, nil))
	f.Add(encodeDirectory(5, []PageInfo{{Slot: 1 << 21, Slots: 3, Seq: 1 << 40, Table: "u"}}))
	huge := make([]byte, pageFrameHeader+4)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	f.Add(huge)
	f.Fuzz(checkDirectory)
}
