package relational

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/pagestore"
)

// TestPagedDemotionAndFault is the paged-storage round trip: checkpoint
// leaves committed cold rows page-only, reads fault their pages back in
// through the buffer pool, and writes against page-only rows
// materialize first and stay correct across recovery.
func TestPagedDemotionAndFault(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{PageCacheBytes: 64 << 10})
	ids := make([]RowID, 0, 50)
	for i := int64(1); i <= 50; i++ {
		ids = append(ids, mustInsertParent(t, db, i, fmt.Sprintf("name-%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PagesTotal == 0 {
		t.Fatalf("no pages after checkpoint: %+v", st)
	}
	// Every insert was a lone committed version at the pin, so the
	// checkpoint dropped it; the reads below must fault.
	for i, id := range ids {
		r, err := db.Get("parent", id)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("name-%d", i+1); r.Values[1].Str != want {
			t.Fatalf("row %d faulted %q, want %q", id, r.Values[1].Str, want)
		}
	}
	if st = db.Stats(); st.PagecacheMisses == 0 {
		t.Fatalf("reads of page-only rows faulted no pages: %+v", st)
	}

	// Write paths against page-only rows: update materializes first.
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("parent", ids[0], map[string]Value{"name": String_("updated")})
	})
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("parent", ids[1])
		return err
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, WALOptions{PageCacheBytes: 64 << 10})
	if info.CheckpointRows != 49 {
		t.Fatalf("recovered %d checkpoint rows, want 49", info.CheckpointRows)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered paged state:\n got %v\nwant %v", got, want)
	}
	// Unique index rebuilt from the page payloads at recovery.
	if rows, err := db2.LookupEqual("parent", []string{"name"}, []Value{String_("updated")}); err != nil || len(rows) != 1 {
		t.Fatalf("index lookup after lazy recovery: rows=%v err=%v", rows, err)
	}
}

// TestDataBeyondPoolBudget runs a dataset far larger than the buffer
// pool: the workload must evict, every row must still read back
// correctly, and a restart must recover lazily into the same bounded
// pool (recovery reads each page once, outside the pool: no pool fault
// until the first read).
func TestDataBeyondPoolBudget(t *testing.T) {
	dir := t.TempDir()
	// ~2000 rows x ~120B payload is ~60 pages; budget two frames' worth.
	opts := WALOptions{PageCacheBytes: 8 << 10}
	db, _ := openWALDB(t, dir, opts)
	for i := int64(1); i <= 2000; i++ {
		mustInsertParent(t, db, i, fmt.Sprintf("padpadpadpadpadpadpadpadpadpadpadpadpadpadpad-%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		n := 0
		if err := db.Scan("parent", func(r *Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 2000 {
			t.Fatalf("scan pass %d saw %d rows, want 2000", pass, n)
		}
	}
	st := db.Stats()
	if st.PagecacheEvictions == 0 {
		t.Fatalf("dataset beyond budget evicted nothing: %+v", st)
	}
	want := dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, info := openWALDB(t, dir, opts)
	if info.CheckpointRows != 2000 {
		t.Fatalf("recovered %d checkpoint rows, want 2000", info.CheckpointRows)
	}
	if st := db2.Stats(); st.PagecacheMisses != 0 {
		t.Fatalf("recovery faulted %d pages before any read — not lazy", st.PagecacheMisses)
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered beyond-budget state diverged")
	}
}

// TestPagedReadsVsCheckpointStress races faulting readers against
// writers and checkpoints under a tiny pool, the -race proof of the
// pager's latch/quarantine contract: snapshots fault after dropping the
// latch while checkpoint apply drops versions, invalidates and frees
// slots, and an inserter grows the id column while passes plan, whose
// slot reads hold the read latch. A prober runs snapshot primary and
// foreign key lookups while every pass merges the index deltas into new
// runs and the reclaimer marks run entries dead (a child moves from
// parent to parent).
func TestPagedReadsVsCheckpointStress(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{PageCacheBytes: 4 << 10})
	const rows, parents = 200, 50 // parents 1..50 keep two children each
	ids := make([]RowID, 0, rows)
	for i := int64(1); i <= rows; i++ {
		ids = append(ids, mustInsertParent(t, db, i, fmt.Sprintf("stress-%d", i)))
	}
	children := map[int64][]RowID{}
	for c := int64(1); c <= 2*parents; c++ {
		p := 1 + c%parents
		children[p] = append(children[p], mustInsertChild(t, db, c, p, "stays"))
	}
	mover := mustInsertChild(t, db, 1000, 1, "moves")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(rows + 1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := db.Begin()
			_, err := tx.Insert("parent", map[string]Value{"id": Int_(k), "name": String_(fmt.Sprintf("fresh-%d", k))})
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				tx.Rollback()
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1 + i%parents
			snap := db.Snapshot()
			pk, err := snap.LookupRows("parent", []string{"id"}, []Value{Int_(k)})
			fk, err2 := snap.LookupRows("child", []string{"parent_id"}, []Value{Int_(k)})
			snap.Close()
			got := rowIDs(fk)
			if err != nil || err2 != nil || len(pk) != 1 || pk[0].Values[0].Int != k {
				t.Errorf("snapshot PK lookup of %d: %v, %v, %v", k, pk, err, err2)
				return
			}
			for _, id := range children[k] {
				if _, ok := slices.BinarySearch(got, id); !ok || !slices.IsSorted(got) {
					t.Errorf("snapshot FK lookup of %d: %v, want ascending and holding %v", k, got, children[k])
					return
				}
			}
			for _, r := range fk {
				if r.Values[1].Int != k {
					t.Errorf("snapshot FK lookup of %d returned row %d with parent %v", k, r.ID, r.Values[1])
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					if _, err := db.Get("parent", ids[i%rows]); err != nil {
						t.Error(err)
						return
					}
				} else {
					snap := db.Snapshot()
					n := 0
					if err := snap.Scan("parent", func(*Row) bool { n++; return n < 50 }); err != nil {
						t.Error(err)
						snap.Close()
						return
					}
					if got, err := snap.LookupRows("parent", []string{"id"}, []Value{Int_(int64(i%rows + 1))}); err != nil || len(got) != 1 {
						t.Errorf("snapshot lookup of key %d: %v, %v", i%rows+1, got, err)
						snap.Close()
						return
					}
					snap.Close()
				}
			}
		}(g)
	}
	for round := 0; round < 20; round++ {
		for j := 0; j < 10; j++ {
			id := ids[(round*10+j)%rows]
			write(t, db, func(tx *Txn) error {
				return tx.UpdateRow("parent", id, map[string]Value{
					"name": String_(fmt.Sprintf("stress-%d-%d", round, j)),
				})
			})
		}
		// The mover's new FK entry goes to the delta; the reclaim below
		// marks its old one dead in the run until the next pass merges.
		write(t, db, func(tx *Txn) error {
			return tx.UpdateRow("child", mover, map[string]Value{"parent_id": Int_(int64(1 + round%parents))})
		})
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
		db.Reclaim()
	}
	close(stop)
	wg.Wait()
}

// slotOf reads a row's slot from its table's id column under the read
// latch: 1 + its page slot, 0 for none.
func slotOf(t *testing.T, db *Database, table string, id RowID) uint32 {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.tableData(table)
	if err != nil {
		t.Fatal(err)
	}
	return td.slotOf(id)
}

// pagerOverOnePage installs n two-column rows of table "t" (ids 1..n)
// into a fresh page store and returns a pager over it plus the page's
// stamp (slot+1). Payloads may be overridden per row id.
func pagerOverOnePage(t *testing.T, n int, override map[RowID][]byte) (*pager, uint32) {
	t.Helper()
	store, _, err := pagestore.Open(pagestore.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	rows := make([]pagestore.InstallRow, n)
	for i := range rows {
		id := RowID(i + 1)
		payload, ok := override[id]
		if !ok {
			payload = encodeRowPayload(nil, []Value{Int_(int64(id)), String_(fmt.Sprintf("name-%04d-%s", id, strings.Repeat("p", 28)))})
		}
		rows[i] = pagestore.InstallRow{ID: int64(id), Payload: payload}
	}
	placed, err := store.Install(1, []pagestore.Install{{Table: "t", Rows: rows}}, nil)
	if err != nil || len(placed) != 1 {
		t.Fatalf("install: %v placements=%d (want the rows on one page)", err, len(placed))
	}
	return newPager(store, 1<<20), placed[0].Slot + 1
}

// TestFaultRowAllocsAreOneRow pins what a fault pays for, by allocation
// counts: from a resident page, exactly the row it returns (the value
// slice and the one string in it) whatever else the page holds; on a
// miss, a constant on top of that — the frame, the page buffer, the row
// directory — independent of rows per page. Decoding the page's other
// rows, on a hit or a miss, fails it.
func TestFaultRowAllocsAreOneRow(t *testing.T) {
	small, smallStamp := pagerOverOnePage(t, 6, nil)
	big, bigStamp := pagerOverOnePage(t, 60, nil)
	hit := func(p *pager, stamp uint32, id RowID) float64 {
		p.faultRow("t", stamp, id) // make the page resident
		return testing.AllocsPerRun(200, func() { p.faultRow("t", stamp, id) })
	}
	miss := func(p *pager, stamp uint32, id RowID) float64 {
		slots := []uint32{stamp - 1}
		return testing.AllocsPerRun(200, func() {
			p.pool.Invalidate(slots)
			p.faultRow("t", stamp, id)
		})
	}
	const rowAllocs = 2 // []Value + the string column
	for _, id := range []RowID{1, 30, 60} {
		if got := hit(big, bigStamp, id); got != rowAllocs {
			t.Errorf("row %d from a resident 60-row page: %v allocs, want %d", id, got, rowAllocs)
		}
	}
	if got := hit(small, smallStamp, 3); got != rowAllocs {
		t.Errorf("row from a resident 6-row page: %v allocs, want %d", got, rowAllocs)
	}
	missSmall, missBig := miss(small, smallStamp, 3), miss(big, bigStamp, 30)
	if missSmall != missBig || missBig > 16 {
		t.Errorf("miss allocs: %v on a 6-row page, %v on a 60-row page; want equal and small", missSmall, missBig)
	}
	if st := big.pool.Stats(); st.Misses != 1+201 || st.Hits != 2+3*201 { // AllocsPerRun(200) calls 201 times
		t.Errorf("pool counters moved off the fault path: %+v", st)
	}
	if vals := big.faultRow("t", bigStamp, 30); vals[0].Int != 30 || !strings.HasPrefix(vals[1].Str, "name-0030-") {
		t.Fatalf("faulted the wrong row: %v", vals)
	}
}

// TestFaultRowCorruptPayloadPanics: the page CRC covers the frame, not
// the meaning of a payload, so a row that does not decode is found at
// the fault of THAT row — and must name the slot and the row — while
// its page neighbours keep reading.
func TestFaultRowCorruptPayloadPanics(t *testing.T) {
	p, stamp := pagerOverOnePage(t, 10, map[RowID][]byte{7: {0x05, walValInt}})
	if vals := p.faultRow("t", stamp, 6); vals[0].Int != 6 {
		t.Fatalf("neighbour of the corrupt row: %v", vals)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{fmt.Sprintf("slot %d", stamp-1), "row t/7"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}
	}()
	p.faultRow("t", stamp, 7)
	t.Fatal("corrupt payload did not panic")
}

// FuzzRowPayloadDecode: a row payload is arbitrary bytes behind a valid
// page CRC or WAL frame CRC, and every read of a row decodes one, so the
// two decoders must agree. Decoding never panics; the skip walk agrees
// with the full decode on where every column starts and on which value
// is malformed; whenever decodeRowPayload accepts the bytes,
// decodeColumns under the fuzzed want mask (bit c marks column c, up to
// the mask's highest set bit within the row) returns the same value in
// every marked column; and encodeRowPayload of the decoded values
// decodes back to the same values.
func FuzzRowPayloadDecode(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x05, walValInt}, uint64(1))
	f.Add(encodeRowPayload(nil, nil), uint64(0))
	f.Add(encodeRowPayload(nil, []Value{Int_(-7), String_("a\x00b"), Null(), Float_(2.5)}), uint64(0b1010))
	f.Add(encodeRowPayload(nil, []Value{Int_(-7), String_("a\x00b"), Null(), Float_(2.5)}), uint64(0b1111))
	f.Add(encodeRowPayload(nil, []Value{String_("x"), Int_(1 << 40)})[:5], uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		if ncols, sz := binary.Uvarint(data); sz > 0 {
			full, skip := data[sz:], data[sz:]
			for c := uint64(0); c < ncols; c++ {
				_, fullNext, ferr := decodeWALValue(full)
				skipNext, serr := skipWALValue(skip)
				if (ferr == nil) != (serr == nil) {
					t.Fatalf("column %d: decode error %v, skip error %v", c, ferr, serr)
				}
				if ferr != nil {
					break
				}
				if len(fullNext) != len(skipNext) {
					t.Fatalf("column %d ends at offset %d decoding, %d skipping", c, len(data)-len(fullNext), len(data)-len(skipNext))
				}
				full, skip = fullNext, skipNext
			}
		}
		vals, err := decodeRowPayload(nil, data)
		if err != nil {
			return
		}
		var want []bool
		for c := range min(len(vals), 64) {
			if mask&(1<<c) != 0 {
				want = markColumns(want, []int{c})
			}
		}
		got := make([]Value, len(want))
		for i := range got {
			got[i] = String_("unmarked") // a column decodeColumns must not touch
		}
		if err := decodeColumns(data, got, want); err != nil {
			t.Fatalf("decodeColumns (want %v) failed where decodeRowPayload did not: %v", want, err)
		}
		for c, w := range want {
			if !w {
				if got[c] != String_("unmarked") {
					t.Fatalf("column %d: not marked, but decodeColumns wrote %v", c, got[c])
				}
				continue
			}
			if !bytes.Equal(appendWALValue(nil, got[c]), appendWALValue(nil, vals[c])) {
				t.Fatalf("column %d: decodeColumns %v, decodeRowPayload %v", c, got[c], vals[c])
			}
		}
		re := encodeRowPayload(nil, vals)
		again, err := decodeRowPayload(nil, re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if len(again) != len(vals) || !bytes.Equal(encodeRowPayload(nil, again), re) {
			t.Fatalf("round-trip drift: %v then %v", vals, again)
		}
		for c := range vals {
			if !bytes.Equal(appendWALValue(nil, again[c]), appendWALValue(nil, vals[c])) {
				t.Fatalf("column %d: %v re-decodes as %v", c, vals[c], again[c])
			}
		}
	})
}

// TestPagesAndMappingsAgree: the page directory records no rows, so the
// pages are the only durable record of where each row lives, and the id
// column's slots are the in-memory mirror of them. A seeded
// insert/update/delete mix runs over checkpoint passes, with two
// transactions committed out of id order and a rolled-back insert in
// each round; after every pass the id column is strictly ascending, its
// slot column runs parallel to it, every row version's id is in it, each
// live page holds exactly the rows whose slot names it, and with no
// reader open every row is page-only: no table keeps a version. Then the
// database goes down with an
// uncheckpointed tail — CloseWAL runs no pass and writes nothing a kill
// -9 would not have left on disk — and after reopening every index
// bucket, rebuilt from the pages (the run) and the replayed tail (the
// delta), equals its pre-crash contents across both tiers.
func TestPagesAndMappingsAgree(t *testing.T) {
	dir := t.TempDir()
	opts := WALOptions{PageCacheBytes: 16 << 10}
	db, _ := openWALDB(t, dir, opts)
	rng := rand.New(rand.NewSource(25))
	parents := map[int64]bool{}
	children := map[int64]int64{} // child key -> parent key (0: NULL)
	next := int64(0)
	pick := func(m map[int64]bool) int64 {
		keys := slices.Sorted(maps.Keys(m))
		return keys[rng.Intn(len(keys))]
	}
	rowID := func(table string, key int64) RowID {
		ids, err := db.LookupEqual(table, []string{"id"}, []Value{Int_(key)})
		if err != nil || len(ids) != 1 {
			t.Fatalf("%s key %d: %v, %v", table, key, ids, err)
		}
		return ids[0]
	}
	mix := func(ops int) {
		for range ops {
			next++
			switch op := rng.Intn(10); {
			case op < 3 || len(parents) < 5:
				mustInsertParent(t, db, next, fmt.Sprintf("p-%d", next))
				parents[next] = true
			case op < 6:
				vals := map[string]Value{"id": Int_(next), "val": String_(fmt.Sprintf("c-%d", next))}
				children[next] = 0
				if rng.Intn(6) > 0 {
					children[next] = pick(parents)
					vals["parent_id"] = Int_(children[next])
				}
				write(t, db, func(tx *Txn) error {
					_, err := tx.Insert("child", vals)
					return err
				})
			case op < 8:
				k := pick(parents)
				write(t, db, func(tx *Txn) error {
					return tx.UpdateRow("parent", rowID("parent", k), map[string]Value{"name": String_(fmt.Sprintf("p-%d-%d", k, next))})
				})
			case op < 9 && len(children) > 0:
				keys := slices.Sorted(maps.Keys(children))
				k := keys[rng.Intn(len(keys))]
				write(t, db, func(tx *Txn) error {
					_, err := tx.Delete("child", rowID("child", k))
					return err
				})
				delete(children, k)
			default: // cascades to the parent's children
				k := pick(parents)
				write(t, db, func(tx *Txn) error {
					_, err := tx.Delete("parent", rowID("parent", k))
					return err
				})
				delete(parents, k)
				for c, p := range children {
					if p == k {
						delete(children, c)
					}
				}
			}
		}
		// Two transactions commit against their id order (replay must
		// put the first id before the second), and an insert rolls back
		// (its id waits in the column for compaction).
		txs := []*Txn{db.Begin(), db.Begin(), db.Begin()}
		for _, tx := range txs {
			next++
			if _, err := tx.Insert("parent", map[string]Value{"id": Int_(next), "name": String_(fmt.Sprintf("p-%d", next))}); err != nil {
				t.Fatal(err)
			}
		}
		parents[next-2], parents[next-1] = true, true
		for _, err := range []error{txs[2].Rollback(), txs[1].Commit(), txs[0].Commit()} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for pass := 0; pass < 10; pass++ {
		mix(80)
		db.Reclaim()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		p := db.pager
		named := map[uint32]map[RowID]bool{}
		tableOf := map[uint32]string{}
		for table, td := range db.tables {
			if len(td.slots) != len(td.ids) {
				t.Fatalf("pass %d: %s has %d ids and %d slots", pass, table, len(td.ids), len(td.slots))
			}
			for i, id := range td.ids {
				if i > 0 && td.ids[i-1] >= id {
					t.Fatalf("pass %d: %s's id column is not strictly ascending at %d: %d then %d", pass, table, i, td.ids[i-1], id)
				}
				slot := slotOf(t, db, table, id)
				if slot == 0 {
					continue
				}
				if named[slot-1] == nil {
					named[slot-1] = map[RowID]bool{}
				}
				named[slot-1][id] = true
				tableOf[slot-1] = table
			}
			for id := range td.rows {
				if _, ok := slices.BinarySearch(td.ids, id); !ok {
					t.Fatalf("pass %d: %s keeps a version of row %d, which its id column lacks", pass, table, id)
				}
			}
		}
		if got := db.Stats().PagesTotal; got != int64(len(named)) {
			t.Fatalf("pass %d: the directory maps %d pages, the slots name %d", pass, got, len(named))
		}
		for slot, ids := range named {
			table, _, rows, err := p.store.ReadPage(slot)
			if err != nil || table != tableOf[slot] || len(rows) != len(ids) {
				t.Fatalf("pass %d: page %d holds %d rows of %q (%v); the slots name %d of %q", pass, slot, len(rows), table, err, len(ids), tableOf[slot])
			}
			for _, r := range rows {
				if id := RowID(r.ID); !ids[id] {
					t.Fatalf("pass %d: page %d holds row %s/%d, whose slot does not name it", pass, slot, table, id)
				}
			}
		}
		for name, td := range db.tables {
			if len(td.rows) != 0 {
				t.Fatalf("pass %d: %s keeps %d versions with no reader open", pass, name, len(td.rows))
			}
		}
	}
	mix(40) // the tail recovery replays over the pages
	db.Reclaim()
	buckets := func(db *Database) map[string]map[uint64][]RowID {
		out := map[string]map[uint64][]RowID{}
		for name, td := range db.tables {
			for i, ix := range td.indexes {
				out[fmt.Sprintf("%s#%d", name, i)] = indexEntries(t, ix)
			}
		}
		return out
	}
	want, wantDump := buckets(db), dumpDB(t, db)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info := openWALDB(t, dir, opts)
	if info.CheckpointRows == 0 || info.ReplayedTxns == 0 {
		t.Fatalf("reopen restored %d page rows and replayed %d txns; want both", info.CheckpointRows, info.ReplayedTxns)
	}
	if got := buckets(db2); !reflect.DeepEqual(got, want) {
		for name := range want {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("index %s after reopen:\n got %v\nwant %v", name, got[name], want[name])
			}
		}
		t.FailNow()
	}
	if got := dumpDB(t, db2); !reflect.DeepEqual(got, wantDump) {
		t.Fatal("reopened table dump differs")
	}
}

// TestRestoreBuildsIndexRuns: a restart restores index entries straight
// into runs. After reopening a fully checkpointed dir every index's
// delta is empty and its run is exactly sized, and every row's primary
// and foreign key lookups return what they did before the restart. A
// tail of writes replayed from the log lands in the delta (inserts, a
// child moved to another parent, a cascading delete) and the lookups
// still agree with what they returned before that restart.
func TestRestoreBuildsIndexRuns(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	for p := int64(1); p <= 40; p++ {
		mustInsertParent(t, db, p, fmt.Sprintf("p%d", p))
	}
	for c := int64(1); c <= 120; c++ {
		mustInsertChild(t, db, c, 1+c%40, fmt.Sprintf("c%d", c))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// lookups answers every parent key's PK and FK probe and every child
	// key's PK probe, through a snapshot.
	lookups := func(db *Database) map[string][]RowID {
		t.Helper()
		snap := db.Snapshot()
		defer snap.Close()
		out := map[string][]RowID{}
		for k := int64(1); k <= 130; k++ {
			for _, probe := range []struct{ table, col string }{{"parent", "id"}, {"child", "parent_id"}, {"child", "id"}} {
				rows, err := snap.LookupRows(probe.table, []string{probe.col}, []Value{Int_(k)})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s.%s=%d", probe.table, probe.col, k)] = rowIDs(rows)
			}
		}
		return out
	}
	reopen := func(db *Database, replay bool) *Database {
		t.Helper()
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		db2, info := openWALDB(t, dir, WALOptions{})
		if (info.ReplayedTxns > 0) != replay {
			t.Fatalf("reopen replayed %d txns; want a replay: %v", info.ReplayedTxns, replay)
		}
		return db2
	}
	want := lookups(db)
	db = reopen(db, false)
	for name, td := range db.tables {
		for i, ix := range td.indexes {
			if len(ix.one)+len(ix.many) != 0 || len(ix.ids) == 0 || len(ix.ids) != cap(ix.ids) || len(ix.hashes) != cap(ix.hashes) {
				t.Fatalf("%s index %d after a restore: %d+%d delta keys, run len %d cap %d; want an empty delta and an exactly sized run",
					name, i, len(ix.one), len(ix.many), len(ix.ids), cap(ix.ids))
			}
		}
	}
	if got := lookups(db); !reflect.DeepEqual(got, want) {
		t.Fatalf("lookups after a restore differ:\n got %v\nwant %v", got, want)
	}

	for c := int64(121); c <= 125; c++ {
		mustInsertChild(t, db, c, 3, "tail")
	}
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("child", rowIDOf(t, db, "child", 1), map[string]Value{"parent_id": Int_(4)})
	})
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("parent", rowIDOf(t, db, "parent", 5))
		return err
	})
	want = lookups(db)
	db = reopen(db, true)
	delta := 0
	for _, ix := range db.tables["child"].indexes {
		delta += len(ix.one) + len(ix.many)
	}
	if delta == 0 {
		t.Fatal("the replayed tail left no entry in the child table's deltas")
	}
	if got := lookups(db); !reflect.DeepEqual(got, want) {
		t.Fatalf("lookups after a replay differ:\n got %v\nwant %v", got, want)
	}
}

// rowIDOf returns the id of the row whose "id" column holds key.
func rowIDOf(t *testing.T, db *Database, table string, key int64) RowID {
	t.Helper()
	ids, err := db.LookupEqual(table, []string{"id"}, []Value{Int_(key)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("%s id=%d: %v, %v", table, key, ids, err)
	}
	return ids[0]
}

// TestRestoreRefusesRepeatedRowID: a directory whose live pages hold one
// row id twice fails OpenWAL, and the error names both pages' slots.
func TestRestoreRefusesRepeatedRowID(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	id := mustInsertParent(t, db, 1, "twice")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	store, rec, err := pagestore.Open(pagestore.OS, dir)
	if err != nil || len(rec.Pages) != 1 {
		t.Fatalf("page store: %v, %d live pages; want the row's one", err, len(rec.Pages))
	}
	row := pagestore.InstallRow{ID: int64(id), Payload: encodeRowPayload(nil, []Value{Int_(1), String_("twice")})}
	placed, err := store.Install(rec.Seq, []pagestore.Install{{Table: "parent", Rows: []pagestore.InstallRow{row}}}, nil)
	if err != nil || len(placed) != 1 {
		t.Fatalf("install: %v, %d pages", err, len(placed))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewDatabase(walSchema(t)).OpenWAL(dir, WALOptions{})
	if err == nil {
		t.Fatal("OpenWAL restored a row id held by two live pages")
	}
	if both := fmt.Sprintf("pages, %d and %d", rec.Pages[0].Slot, placed[0].Slot); !strings.Contains(err.Error(), both) {
		t.Fatalf("OpenWAL: %v; want it to name both slots (%q)", err, both)
	}
}

// TestPageOnlyRowHorizon: a snapshot opened before an insert commits is
// held across the checkpoint that pages the row. The row must keep its
// version — dropping it would make it page-only, which every reader
// sees — until the snapshot closes and a reclaim runs.
func TestPageOnlyRowHorizon(t *testing.T) {
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	snap := db.Snapshot()
	id := mustInsertParent(t, db, 1, "late")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if slotOf(t, db, "parent", id) == 0 {
		t.Fatal("the checkpoint did not page the row")
	}
	blind := func(stage string) {
		t.Helper()
		if r, err := snap.Get("parent", id); !errors.Is(err, ErrNoSuchRow) {
			t.Fatalf("%s: the older snapshot reads %v, %v", stage, r, err)
		}
		if ids := snap.ScanIDs("parent"); len(ids) != 0 {
			t.Fatalf("%s: the older snapshot scans %v", stage, ids)
		}
		if ids, err := snap.LookupEqual("parent", []string{"name"}, []Value{String_("late")}); err != nil || len(ids) != 0 {
			t.Fatalf("%s: the older snapshot looks up %v, %v", stage, ids, err)
		}
	}
	blind("after the checkpoint")
	db.Reclaim()
	blind("after a reclaim")
	if vs := snap.VersionStats(); vs.Versions != 1 {
		t.Fatalf("with the older snapshot open: %d versions, want the row's 1", vs.Versions)
	}
	snap.Close()
	db.Reclaim()
	now := db.Snapshot()
	defer now.Close()
	if vs := now.VersionStats(); vs.Versions != 0 || vs.VisibleRows != 1 {
		t.Fatalf("after close and reclaim: %+v, want no version and one visible row", vs)
	}
	if r, err := now.Get("parent", id); err != nil || r.Values[1].Str != "late" {
		t.Fatalf("page-only row reads %v, %v", r, err)
	}
}

// TestPageOnlyRowDeleteStaysGone: a page-only row is deleted and a
// reclaim runs before the next checkpoint. Its page still holds it, so
// the dead head must stay until the pass that unmaps it, and the row
// must read as gone through every path — before that pass, after it and
// after a reopen.
func TestPageOnlyRowDeleteStaysGone(t *testing.T) {
	dir := t.TempDir()
	db, _ := openWALDB(t, dir, WALOptions{})
	keep := mustInsertParent(t, db, 1, "keep")
	gone := mustInsertParent(t, db, 2, "gone")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.tables["parent"].rows); n != 0 {
		t.Fatalf("%d versions after the checkpoint, want both rows page-only", n)
	}
	write(t, db, func(tx *Txn) error {
		_, err := tx.Delete("parent", gone)
		return err
	})
	db.Reclaim()
	assertGone := func(stage string, db *Database) {
		t.Helper()
		snap := db.Snapshot()
		defer snap.Close()
		for _, r := range []Reader{db, snap} {
			if row, err := r.Get("parent", gone); !errors.Is(err, ErrNoSuchRow) {
				t.Fatalf("%s: %T.Get reads %v, %v", stage, r, row, err)
			}
			var ids []RowID
			if err := r.Scan("parent", func(row *Row) bool { ids = append(ids, row.ID); return true }); err != nil || !slices.Equal(ids, []RowID{keep}) {
				t.Fatalf("%s: %T.Scan sees %v, %v; want [%d]", stage, r, ids, err, keep)
			}
			if ids, err := r.LookupEqual("parent", []string{"name"}, []Value{String_("gone")}); err != nil || len(ids) != 0 {
				t.Fatalf("%s: %T unique lookup finds %v, %v", stage, r, ids, err)
			}
		}
	}
	assertGone("after the reclaim", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertGone("after the checkpoint", db)
	if slotOf(t, db, "parent", gone) != 0 {
		t.Fatal("the checkpoint kept the deleted row's page slot")
	}
	snap := db.Snapshot()
	if vs := snap.VersionStats(); vs.Versions != 0 {
		t.Fatalf("%d versions after the unmapping pass, want the dead head dropped", vs.Versions)
	}
	snap.Close()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openWALDB(t, dir, WALOptions{})
	assertGone("after a reopen", db2)
}

// TestPageOnlyRowWriteMaterializes: a write to a page-only row gives it
// a version first. A second writer then conflicts, and a snapshot opened
// before the write — older than the page the row has moved to since —
// still reads the old values, before and after the commit.
func TestPageOnlyRowWriteMaterializes(t *testing.T) {
	db, _ := openWALDB(t, t.TempDir(), WALOptions{})
	a := mustInsertParent(t, db, 1, "a")
	c := mustInsertParent(t, db, 2, "c")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Close()
	// c's update supersedes the page both rows share: a survives onto a
	// fresh page stamped with a sequence newer than the snapshot.
	write(t, db, func(tx *Txn) error {
		return tx.UpdateRow("parent", c, map[string]Value{"name": String_("c2")})
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	td := db.tables["parent"]
	if td.rows[a] != nil {
		t.Fatal("row a is not page-only")
	}
	t1 := db.Begin()
	if err := t1.UpdateRow("parent", a, map[string]Value{"name": String_("a2")}); err != nil {
		t.Fatal(err)
	}
	if td.rows[a] == nil {
		t.Fatal("the write left row a page-only")
	}
	t2 := db.Begin()
	if err := t2.UpdateRow("parent", a, map[string]Value{"name": String_("a3")}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second writer: %v, want ErrWriteConflict", err)
	}
	_ = t2.Rollback()
	old := func(stage string) {
		t.Helper()
		if r, err := snap.Get("parent", a); err != nil || r.Values[1].Str != "a" {
			t.Fatalf("%s: the older snapshot reads %v, %v; want the old values", stage, r, err)
		}
		if ids, err := snap.LookupEqual("parent", []string{"name"}, []Value{String_("a")}); err != nil || !slices.Equal(ids, []RowID{a}) {
			t.Fatalf("%s: the older snapshot looks up %v, %v", stage, ids, err)
		}
	}
	old("before the commit")
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	old("after the commit")
	if r, err := db.Get("parent", a); err != nil || r.Values[1].Str != "a2" {
		t.Fatalf("latest read %v, %v; want a2", r, err)
	}
}
