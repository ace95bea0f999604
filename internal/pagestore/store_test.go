package pagestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func rowsOf(n int, base int64) []InstallRow {
	rows := make([]InstallRow, n)
	for i := range rows {
		rows[i] = InstallRow{
			ID:      base + int64(i),
			Payload: []byte(fmt.Sprintf("payload-%d", base+int64(i))),
			Meta:    []string{fmt.Sprintf("k%d", base+int64(i))},
		}
	}
	return rows
}

func TestStoreInstallReadRecover(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, Options{})
	if rec.Seq != 0 || len(rec.Pages) != 0 {
		t.Fatalf("fresh store not empty: %+v", rec)
	}
	pl, err := s.Install(5, []Install{{Table: "tbl", Rows: rowsOf(300, 0)}}, nil)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if len(pl) < 2 {
		t.Fatalf("300 rows should span multiple pages, got %d", len(pl))
	}
	seen := map[int64]bool{}
	for _, p := range pl {
		table, seq, rows, err := s.ReadPage(p.Slot)
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", p.Slot, err)
		}
		if table != "tbl" || seq != 5 {
			t.Fatalf("page self-description wrong: %q/%d", table, seq)
		}
		if len(rows) != len(p.Rows) {
			t.Fatalf("page rows %d != placement ids %d", len(rows), len(p.Rows))
		}
		for i, r := range rows {
			if r.ID != p.Rows[i].ID {
				t.Fatalf("id order mismatch")
			}
			want := fmt.Sprintf("payload-%d", r.ID)
			if !bytes.Equal(r.Payload, []byte(want)) {
				t.Fatalf("payload mismatch for id %d", r.ID)
			}
			seen[r.ID] = true
		}
	}
	if len(seen) != 300 {
		t.Fatalf("placed %d unique rows, want 300", len(seen))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec2.Seq != 5 {
		t.Fatalf("recovered seq %d, want 5", rec2.Seq)
	}
	total := 0
	for _, pi := range rec2.Pages {
		if pi.Table != "tbl" {
			t.Fatalf("recovered table %q", pi.Table)
		}
		for _, r := range pi.Rows {
			if want := fmt.Sprintf("k%d", r.ID); len(r.Meta) != 1 || r.Meta[0] != want {
				t.Fatalf("meta lost for id %d: %v", r.ID, r.Meta)
			}
		}
		total += len(pi.Rows)
	}
	if total != 300 {
		t.Fatalf("recovered %d rows, want 300", total)
	}
}

func TestStoreFreeAndReuse(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	defer s.Close()
	pl, err := s.Install(1, []Install{{Table: "t", Rows: rowsOf(10, 0)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldSlot := pl[0].Slot
	// Supersede the page.
	if _, err := s.Install(2, []Install{{Table: "t", Rows: rowsOf(10, 0)}}, []uint32{oldSlot}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.PageRows(oldSlot); ok {
		t.Fatalf("freed slot %d still in directory", oldSlot)
	}
	st := s.Stats()
	if st.FreeSlots != 0 {
		t.Fatalf("slot reusable before Release: %+v", st)
	}
	s.Release([]uint32{oldSlot}, []uint32{1})
	if st := s.Stats(); st.FreeSlots != 1 {
		t.Fatalf("slot not reusable after Release: %+v", st)
	}
	// Next single-page install must reuse it.
	pl3, err := s.Install(3, []Install{{Table: "u", Rows: rowsOf(1, 100)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl3[0].Slot != oldSlot {
		t.Fatalf("expected reuse of slot %d, got %d", oldSlot, pl3[0].Slot)
	}
}

func TestStoreOversizedRowExtent(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	big := make([]byte, 3*PageSize)
	for i := range big {
		big[i] = byte(i)
	}
	pl, err := s.Install(1, []Install{{Table: "t", Rows: []InstallRow{{ID: 9, Payload: big}}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 {
		t.Fatalf("want one extent placement, got %d", len(pl))
	}
	_, _, rows, err := s.ReadPage(pl[0].Slot)
	if err != nil {
		t.Fatalf("ReadPage extent: %v", err)
	}
	if len(rows) != 1 || !bytes.Equal(rows[0].Payload, big) {
		t.Fatalf("extent payload mismatch")
	}
	s.Close()
	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(rec.Pages) != 1 || rec.Pages[0].Slots < 3 {
		t.Fatalf("extent not recovered: %+v", rec.Pages)
	}
}

func TestStoreTornDirectoryTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Install(1, []Install{{Table: "t", Rows: rowsOf(5, 0)}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Install(2, []Install{{Table: "t", Rows: rowsOf(5, 100)}}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the final directory record mid-frame.
	logPath := filepath.Join(dir, dirLogName(1))
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec.Seq != 1 {
		t.Fatalf("torn tail not discarded: seq %d, want 1", rec.Seq)
	}
	ids := map[int64]bool{}
	for _, pi := range rec.Pages {
		for _, r := range pi.Rows {
			ids[r.ID] = true
		}
	}
	if len(ids) != 5 || !ids[0] || ids[100] {
		t.Fatalf("recovered wrong row set: %v", ids)
	}
	// The torn record's heap slots must be free again.
	if st := s2.Stats(); st.FreeSlots == 0 {
		t.Fatalf("orphaned heap slots not reclaimed: %+v", st)
	}
}

func TestStoreBaseCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{DirLogLimit: 2})
	var last []PageInfo
	var freed []uint32
	for i := 1; i <= 8; i++ {
		var err error
		last, err = s.Install(uint64(i), []Install{{Table: "t", Rows: rowsOf(5, 0)}}, freed)
		if err != nil {
			t.Fatal(err)
		}
		freed = []uint32{last[0].Slot}
	}
	s.compactWG.Wait()
	if err := s.CompactionErr(); err != nil {
		t.Fatalf("compaction error: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, dirBaseName)); err != nil {
		t.Fatalf("base not written: %v", err)
	}
	st := s.Stats()
	if st.DirChainLen > 2 {
		t.Fatalf("chain not folded: %+v", st)
	}
	s.Close()

	s2, rec := mustOpen(t, dir, Options{DirLogLimit: 2})
	defer s2.Close()
	if rec.Seq != 8 {
		t.Fatalf("recovered seq %d, want 8", rec.Seq)
	}
	ids := map[int64]int{}
	for _, pi := range rec.Pages {
		for _, r := range pi.Rows {
			ids[r.ID]++
		}
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("row %d appears %d times after compaction replay", id, n)
		}
	}
	if len(ids) != 5 {
		t.Fatalf("recovered %d rows, want 5", len(ids))
	}
}

func TestStoreEmptyInstallAdvancesSeq(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Install(7, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec := mustOpen(t, dir, Options{})
	defer s2.Close()
	if rec.Seq != 7 {
		t.Fatalf("empty install did not advance seq: %d", rec.Seq)
	}
}

func TestStoreFailpointError(t *testing.T) {
	for _, fp := range []string{fpWrite, fpDirectory} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			fired := 0
			s, _ := mustOpen(t, dir, Options{Failpoint: func(name string) error {
				if name == fp && fired == 0 {
					fired++
					return fmt.Errorf("boom at %s", name)
				}
				return nil
			}})
			if _, err := s.Install(1, []Install{{Table: "t", Rows: rowsOf(3, 0)}}, nil); err == nil {
				t.Fatalf("install should fail at %s", fp)
			}
			if fired == 0 {
				t.Fatalf("failpoint %s never fired", fp)
			}
			// The store must remain usable and the failed install invisible.
			if _, err := s.Install(2, []Install{{Table: "t", Rows: rowsOf(3, 0)}}, nil); err != nil {
				t.Fatalf("install after failed install: %v", err)
			}
			s.Close()
			s2, rec := mustOpen(t, dir, Options{})
			defer s2.Close()
			if rec.Seq != 2 {
				t.Fatalf("recovered seq %d, want 2", rec.Seq)
			}
		})
	}
}
