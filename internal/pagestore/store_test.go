package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustOpen(t *testing.T, dir string, fs FS) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(fs, dir)
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
		}
	}
	return rows
}

// pageIDs reads every recovered page and counts the row ids on them:
// the directory records pages, the pages record rows.
func pageIDs(t *testing.T, s *Store, rec Recovered) map[int64]int {
	t.Helper()
	ids := map[int64]int{}
	for _, pi := range rec.Pages {
		if pi.Rows != nil {
			t.Fatalf("recovered page %d carries a row list", pi.Slot)
		}
		table, seq, rows, err := s.ReadPage(pi.Slot)
		if err != nil || table != pi.Table || seq != pi.Seq {
			t.Fatalf("page %d: %q/%d, %v; directory says %q/%d", pi.Slot, table, seq, err, pi.Table, pi.Seq)
		}
		for _, r := range rows {
			ids[r.ID]++
		}
	}
	return ids
}

func TestStoreInstallReadRecover(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, OS)
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
			if r.ID != p.Rows[i] {
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

	s2, rec2 := mustOpen(t, dir, OS)
	defer s2.Close()
	if rec2.Seq != 5 {
		t.Fatalf("recovered seq %d, want 5", rec2.Seq)
	}
	for _, pi := range rec2.Pages {
		if pi.Table != "tbl" {
			t.Fatalf("recovered table %q", pi.Table)
		}
	}
	if ids := pageIDs(t, s2, rec2); len(ids) != 300 {
		t.Fatalf("recovered pages hold %d distinct rows, want 300", len(ids))
	}
}

func TestStoreFreeAndReuse(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, OS)
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
	if st := s.Stats(); st.PagesTotal != 1 {
		t.Fatalf("freed slot %d still in directory: %+v", oldSlot, st)
	}
	st := s.Stats()
	if st.FreeSlots != 0 {
		t.Fatalf("slot reusable before Release: %+v", st)
	}
	s.Release([]uint32{oldSlot})
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
	s, _ := mustOpen(t, dir, OS)
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
	s2, rec := mustOpen(t, dir, OS)
	defer s2.Close()
	if len(rec.Pages) != 1 || rec.Pages[0].Slots < 3 {
		t.Fatalf("extent not recovered: %+v", rec.Pages)
	}
}

// TestStoreDirectoryReplaceRoundTrip: every Install replaces the one
// directory file, so after each the store holds the heap and that file
// and nothing else, and a reopen maps exactly the page table the store
// had. A replace a crash cut short before its rename leaves its tmp
// file, which the next Open discards, recovering the directory it never
// replaced.
func TestStoreDirectoryReplaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, OS)
	live := map[int64]int{} // row id -> pages holding it, as installed
	var freed []uint32
	for seq := uint64(1); seq <= 6; seq++ {
		placed, err := s.Install(seq, []Install{{Table: "t", Rows: rowsOf(300, int64(seq)*1000)}}, freed)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(freed)
		for _, pl := range placed {
			for _, id := range pl.Rows {
				live[id]++
			}
		}
		// Supersede the first page of this install in the next.
		freed = []uint32{placed[0].Slot}
		if seq < 6 {
			for _, id := range placed[0].Rows {
				delete(live, id)
			}
		}
		files := storeFiles(t, dir)
		if _, ok := files[dirFileName]; !ok || len(files) != 2 {
			t.Fatalf("after install %d the store holds %d files, want the heap and %s", seq, len(files), dirFileName)
		}
	}
	s.Close()

	s2, rec := mustOpen(t, dir, OS)
	if rec.Seq != 6 {
		t.Fatalf("reopened seq %d, want 6", rec.Seq)
	}
	for i := 1; i < len(rec.Pages); i++ {
		if rec.Pages[i-1].Slot >= rec.Pages[i].Slot {
			t.Fatalf("recovered pages not ascending by slot: %+v", rec.Pages)
		}
	}
	if ids := pageIDs(t, s2, rec); !reflect.DeepEqual(ids, live) {
		t.Fatalf("recovered pages hold %d rows, installed %d live", len(ids), len(live))
	}
	s2.Close()

	// A crash between the tmp write and its rename.
	tmp := filepath.Join(dir, dirFileName+".tmp")
	if err := os.WriteFile(tmp, []byte("half a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := mustOpen(t, dir, OS)
	defer s3.Close()
	if rec3.Seq != 6 || !reflect.DeepEqual(rec3.Pages, rec.Pages) {
		t.Fatalf("a leftover tmp changed what was recovered: seq %d, %d pages", rec3.Seq, len(rec3.Pages))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("the leftover tmp survived Open: %v", err)
	}
}

func TestStoreEmptyInstallAdvancesSeq(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, OS)
	if _, err := s.Install(7, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec := mustOpen(t, dir, OS)
	defer s2.Close()
	if rec.Seq != 7 {
		t.Fatalf("empty install did not advance seq: %d", rec.Seq)
	}
}

// TestStoreFailpointError fails one step of an install: a heap page
// write, the directory's tmp create, its rename. Each subtest is named
// for the failpoint its fault replaced.
func TestStoreFailpointError(t *testing.T) {
	for _, c := range []struct{ name, fault string }{
		{"pagestore.write", "write:heap=error@1"},
		{"pagestore.directory", "open:pagedir=error@1"},
		{"checkpoint.rename", "rename:pagedir=error@1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			faults := &FaultFS{}
			s, _ := mustOpen(t, dir, faults)
			if err := faults.Arm(c.fault); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Install(1, []Install{{Table: "t", Rows: rowsOf(3, 0)}}, nil); !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("install under %s: %v, want the injected fault", c.fault, err)
			}
			// The store must remain usable and the failed install invisible.
			if _, err := s.Install(2, []Install{{Table: "t", Rows: rowsOf(3, 0)}}, nil); err != nil {
				t.Fatalf("install after failed install: %v", err)
			}
			s.Close()
			s2, rec := mustOpen(t, dir, OS)
			defer s2.Close()
			if rec.Seq != 2 {
				t.Fatalf("recovered seq %d, want 2", rec.Seq)
			}
		})
	}
}

// TestArmTakesErrorModeOnly: a fault spec is kind[:class]=error[@N];
// any other mode, kind, class or hit count is refused.
func TestArmTakesErrorModeOnly(t *testing.T) {
	faults := &FaultFS{}
	for _, spec := range []string{"sync:segment=error@3", "write=error", "mkdir:dir=error; rename:pagedir=error@2", ""} {
		if err := faults.Arm(spec); err != nil {
			t.Errorf("Arm(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"write:segment=crash@1", "sync=kill", "pipeline.stamp.after=error", "sync:log=error", "sync=error@0", "sync"} {
		if err := faults.Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
}

// TestDirectoryVisiblePagesAreNeverRewritten checks the write-once rule
// the rest of the system leans on (readers fault a slot the directory
// named, recovery reads the pages the directory maps): over random
// Install / Release / failed-install / reopen sequences, no page write
// ever lands on a slot that is live in the directory or freed but not
// yet released. Both halves are checked — every slot an install returns
// is outside those sets, and every page in them still reads back the
// sequence and rows it was written with.
func TestDirectoryVisiblePagesAreNeverRewritten(t *testing.T) {
	type page struct {
		slots uint32
		seq   uint64
		ids   []int64
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		faults := &FaultFS{}
		s, _ := mustOpen(t, dir, faults)
		live := map[uint32]page{} // what the directory maps
		held := map[uint32]page{} // freed, not yet released
		var quar [][]uint32       // freed batches, oldest first
		covers := func(m map[uint32]page, slot uint32) bool {
			for start, p := range m {
				if slot >= start && slot < start+p.slots {
					return true
				}
			}
			return false
		}
		nextID, seq := int64(1), uint64(0)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // install, superseding a few live pages
				seq++
				var rows []InstallRow
				for n := 1 + rng.Intn(60); n > 0; n-- {
					size := 10 + rng.Intn(80)
					if rng.Intn(40) == 0 {
						size = PageSize + rng.Intn(2*PageSize) // an extent
					}
					rows = append(rows, InstallRow{ID: nextID, Payload: bytes.Repeat([]byte{byte(nextID)}, size)})
					nextID++
				}
				var freed []uint32
				for slot := range live {
					if rng.Intn(4) == 0 {
						freed = append(freed, slot)
					}
				}
				armed := ""
				if rng.Intn(8) == 0 {
					armed = []string{"write:heap=error@1", "open:pagedir=error@1"}[rng.Intn(2)]
				}
				if err := faults.Arm(armed); err != nil {
					t.Fatal(err)
				}
				placed, err := s.Install(seq, []Install{{Table: "t", Rows: rows}}, freed)
				if armed != "" && !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("seed %d step %d: fault %s never fired (install: %v)", seed, step, armed, err)
				}
				if err != nil {
					continue // the failed install is invisible; the checks below prove it wrote over nothing
				}
				for _, pl := range placed {
					for sl := pl.Slot; sl < pl.Slot+pl.Slots; sl++ {
						if covers(live, sl) || covers(held, sl) {
							t.Fatalf("seed %d step %d: install wrote slot %d, which is live or awaiting release", seed, step, sl)
						}
					}
				}
				for _, slot := range freed {
					held[slot] = live[slot]
					delete(live, slot)
				}
				if len(freed) > 0 {
					quar = append(quar, freed)
				}
				for _, pl := range placed {
					live[pl.Slot] = page{slots: pl.Slots, seq: seq, ids: pl.Rows}
				}
			case op < 9: // release the oldest quarantine batch
				if len(quar) == 0 {
					continue
				}
				for _, slot := range quar[0] {
					delete(held, slot)
				}
				s.Release(quar[0])
				quar = quar[1:]
			default: // restart: nothing survives to read a freed slot
				s.Close()
				var rec Recovered
				s, rec = mustOpen(t, dir, faults)
				if len(rec.Pages) != len(live) {
					t.Fatalf("seed %d step %d: reopened %d pages, model has %d", seed, step, len(rec.Pages), len(live))
				}
				held, quar = map[uint32]page{}, nil
			}
			for _, m := range []map[uint32]page{live, held} {
				for slot, p := range m {
					_, gotSeq, rows, err := s.ReadPage(slot)
					if err != nil || gotSeq != p.seq || len(rows) != len(p.ids) {
						t.Fatalf("seed %d step %d: slot %d rewritten: seq %d rows %d err %v; wrote seq %d rows %d",
							seed, step, slot, gotSeq, len(rows), err, p.seq, len(p.ids))
					}
					for i, r := range rows {
						if r.ID != p.ids[i] {
							t.Fatalf("seed %d step %d: slot %d row %d is id %d, wrote %d", seed, step, slot, i, r.ID, p.ids[i])
						}
					}
				}
			}
		}
		s.Close()
	}
}
