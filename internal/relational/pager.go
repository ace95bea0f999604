package relational

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/pagestore"
)

// The pager glues the MVCC engine to the paged checkpoint store. The
// page store holds the durable base image as slotted 4KiB heap pages;
// the buffer pool bounds how much of that image is resident, as page
// BYTES (CRC-verified once per load, never decoded as a whole, read into
// buffers that evicted frames hand back).
//
// A row is one encoding everywhere: its payload (encodeRowPayload), a
// column count and each value in the WAL value encoding. A version holds
// it, a WAL record's after-image is it, and a page slot stores it, so a
// commit and a checkpoint copy bytes, a write or replay that takes a
// version of a page-only row copies them out of the page, and only
// readers decode (see). In-memory version chains are a write-back cache
// over the pages. A row whose one committed version is on its page and
// seen by every reader keeps no version at all: it is PAGE-ONLY, absent
// from td.rows and named by its table's id column with its slot beside
// it, and each read of it decodes that one row's payload out of the
// pooled page (faultRow), so a fault costs the row it touches, not the
// page, and a cold row costs memory only its 8 B id, its 4 B slot and
// its index entries, 16 B each once a pass folds them into sorted runs.
// That is what lets the dataset exceed RAM under a hard PageCacheBytes
// budget.
//
// There is one kind of checkpoint pass, the incremental one: it pages
// the rows dirtied since the previous pass and drops their versions on
// the spot. A dataset therefore never has to exist in memory to reach
// the pages — Load (load.go) streams it in as ordinary transactions with
// a pass per window, leaving behind a first boot what a restart leaves:
// index runs, the id and slot columns, the store's directory and the
// pool. OpenWAL on a populated database marks every row dirty once and
// runs that pass.
//
// A published page is the only durable record of which rows it holds
// (the directory maps slots to pages). A pass reads the pages it
// supersedes once, outside the pool, to carry their clean survivors'
// bytes forward; recovery reads every live page once (restoreFromPages).
//
// Concurrency contract (load-bearing — see faultRow):
//
//   - The id and slot columns are read and written under db.mu. Slots
//     change only in checkpoint apply (write latch, passes serialized by
//     ckptMu) and recovery (single-threaded), but the id column grows on
//     every insert, so checkpoint planning holds the read latch for its
//     slot reads (never across its page I/O). A row id resolves through
//     tableData.ref (td.rows, then a binary search of the column); a walk
//     of the column resolves by position (refAt).
//   - No version and a slot mean committed and visible to every reader,
//     which two rules keep true. The horizon rule: a version is dropped
//     only when it began at or below the reclaim horizon
//     (dropCleanLocked, called by checkpoint apply and the reclaimer).
//     The tombstone rule: a deleted row's dead head stays while its slot
//     is set (reclaimLocked), and the pass that clears the slot drops
//     the head once no reader sees it (applyPagePlacements). A write or
//     replay that touches a page-only row first gives it a version
//     stamped begin 0 (materializeLocked): the page's own sequence may
//     be newer than a pinned reader, and 0 is older than every one.
//   - Unregistered readers (Database.Get and lookups, write paths) may
//     fault ONLY while holding db.mu (either mode), because
//     quarantined slots are released only under the db.mu write latch.
//   - Registered readers (Snapshot, Txn) may fault after dropping the
//     latch: they pin oldestVisibleSeq, and a freed slot's quarantine
//     batch is not released until every reader registered at or before
//     the freeing apply has closed.
//   - Page bytes are valid only while their pool frame is pinned: the
//     pool reads the next miss into an evicted frame's buffer. faultRow
//     and wantedOf decode a row, and payloadOf copies its bytes, before
//     they unpin, so nothing the pager hands out aliases a pool buffer.
type pager struct {
	store *pagestore.Store
	pool  *pagestore.Pool

	// quar holds slots logically freed by a checkpoint install but not
	// yet reusable: a reader registered before the freeing apply may
	// still fault their old content. Appended and drained only under
	// the db.mu write latch.
	quar []quarBatch
}

type quarBatch struct {
	seq   uint64 // commitSeq at apply time
	slots []uint32
}

func newPager(store *pagestore.Store, cacheBytes int64) *pager {
	return &pager{store: store, pool: pagestore.NewPool(store, cacheBytes)}
}

// faultRow returns one row's committed values from its page: the page
// image comes through the buffer pool (CRC-verified bytes, cached as
// read) and only the wanted row's payload is decoded, into a fresh
// slice the caller owns. slotPlus1 is the row's rowRef.slot (slot+1; 0
// means "no page", an invariant violation for a page-only row). Panics
// on I/O error, corruption, or a missing row: the slot came from the
// page directory and the quarantine keeps referenced slots from being
// rewritten, so these are unrecoverable invariant breaks, not ordinary
// errors.
func (p *pager) faultRow(table string, slotPlus1 uint32, id RowID) []Value {
	payload, release := p.pinRow(table, slotPlus1, id)
	defer release() // after the decode: the page bytes are only ours while pinned
	vals, err := decodeRowPayload(nil, payload)
	if err != nil {
		panic(fmt.Sprintf("relational: page slot %d row %s/%d: %v", slotPlus1-1, table, id, err))
	}
	return vals
}

// pinRow pins the page holding one row and returns the row's payload in
// the pooled frame with the release that unpins it: the bytes are only
// the caller's until then. Panics as faultRow does.
func (p *pager) pinRow(table string, slotPlus1 uint32, id RowID) ([]byte, func()) {
	if slotPlus1 == 0 {
		panic(fmt.Sprintf("relational: paged row %s/%d has no page slot", table, id))
	}
	slot := slotPlus1 - 1
	pageTable, payload, release, err := p.pool.Row(slot, int64(id))
	if err != nil {
		panic(fmt.Sprintf("relational: fault page %d for row %s/%d: %v", slot, table, id, err))
	}
	if pageTable != table || payload == nil {
		if release != nil {
			release()
		}
		panic(fmt.Sprintf("relational: row %s/%d is not on page %d (of table %q)", table, id, slot, pageTable))
	}
	return payload, release
}

// rowRef is what resolving one row id under db.mu finds: the row's
// version chain head, or for a page-only row the slot its one committed
// version faults from. A ref with neither names no row.
type rowRef struct {
	head *rowVersion
	id   RowID
	slot uint32 // 1 + the page slot of a page-only row, else 0
}

// ref resolves id: its chain head, else its page slot, found by a
// binary search of the id column. Every read of a row id goes through it
// (a walk of the column uses refAt). Caller holds db.mu in either mode.
func (td *tableData) ref(id RowID) rowRef {
	if v := td.rows[id]; v != nil {
		return rowRef{head: v, id: id}
	}
	return rowRef{id: id, slot: td.slotOf(id)}
}

// refAt resolves the row at position i of the id column, unsearched.
// Caller holds db.mu in either mode.
func (td *tableData) refAt(i int) rowRef {
	r := rowRef{head: td.rows[td.ids[i]], id: td.ids[i]}
	if r.head == nil && td.slots != nil {
		r.slot = td.slots[i]
	}
	return r
}

// slotOf returns 1 + the page slot of id, 0 when it has none. Caller
// holds db.mu in either mode.
func (td *tableData) slotOf(id RowID) uint32 {
	if td.slots == nil {
		return 0
	}
	if i, ok := td.search(id); ok {
		return td.slots[i]
	}
	return 0
}

// search finds id's position in the id column, or where it would go. It
// tries the position a straight line through the column's ends puts id
// at before it searches: the rows of a table loaded in one stream hold
// ids at a fixed stride, so the guess lands. Caller holds db.mu in
// either mode.
func (td *tableData) search(id RowID) (int, bool) {
	ids := td.ids
	if n := len(ids); n > 1 && ids[0] <= id && id <= ids[n-1] {
		g := int(float64(id-ids[0]) / float64(ids[n-1]-ids[0]) * float64(n-1))
		if g < n && ids[g] == id {
			return g, true
		}
	}
	return slices.BinarySearch(ids, id)
}

// setSlot sets id's slot (1 + page slot, 0 to clear). Caller holds the
// db.mu write latch, or is recovery.
func (td *tableData) setSlot(id RowID, slotPlus1 uint32) {
	i, ok := td.search(id)
	if !ok {
		panic(fmt.Sprintf("relational: row %s/%d is not in its table's id column", td.def.Name, id))
	}
	td.slots[i] = slotPlus1
}

// add enters a new id into the column at its sorted place, with no
// slot: an insert's id is the largest yet and appends, a replayed one
// may land earlier. Caller holds the db.mu write latch, or is recovery.
func (td *tableData) add(id RowID) {
	i := len(td.ids)
	if i > 0 && td.ids[i-1] > id {
		i, _ = slices.BinarySearch(td.ids, id)
	}
	td.ids = slices.Insert(td.ids, i, id)
	if td.slots != nil {
		td.slots = slices.Insert(td.slots, i, 0)
	}
}

// found reports whether r names a row, seen by some reader or not.
func (r rowRef) found() bool { return r.head != nil || r.slot != 0 }

// sees reports whether a reader sees r's row, resolve picking the
// version of an in-memory chain. A page-only row is seen by everyone.
func (r rowRef) sees(resolve func(*rowVersion) *rowVersion) bool {
	return r.slot != 0 || resolve(r.head) != nil
}

// see returns the row a reader sees through r, ok false when it sees
// none, decoded into fresh values the caller owns (strings copied out):
// the visible version's payload, or a page-only row's faulted from its
// page. The caller must satisfy the pager's concurrency contract (hold
// db.mu, or be a registered reader).
func (db *Database) see(td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion) (Row, bool) {
	if r.slot != 0 {
		return Row{ID: r.id, Values: db.pager.faultRow(td.key, r.slot, r.id)}, true
	}
	if v := resolve(r.head); v != nil {
		return Row{ID: r.id, Values: v.values(nil)}, true
	}
	return Row{}, false
}

// payloadOf returns the payload of the row a reader sees through r, nil
// when it sees none: the visible version's own bytes (immutable), or a
// copy of a page-only row's out of its page. Nothing is decoded. Same
// contract as see.
func (db *Database) payloadOf(td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion) []byte {
	if r.slot != 0 {
		payload, release := db.pager.pinRow(td.key, r.slot, r.id)
		defer release()
		return bytes.Clone(payload)
	}
	if v := resolve(r.head); v != nil {
		return v.payload
	}
	return nil
}

// wantedOf decodes into buf the columns want marks of the row a reader
// sees through r (decodeWanted), ok false when it sees none: from the
// visible version's payload, or from a page-only row's bytes in its
// pinned frame, unpinned once decoded (a string value is copied out), so
// a key check copies no page row. Same contract as see.
func (db *Database) wantedOf(td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion, want []bool, buf []Value) ([]Value, bool) {
	if r.slot != 0 {
		payload, release := db.pager.pinRow(td.key, r.slot, r.id)
		defer release()
		return decodeWanted(payload, want, buf), true
	}
	if v := resolve(r.head); v != nil {
		return decodeWanted(v.payload, want, buf), true
	}
	return nil, false
}

// decodeWanted decodes the columns want marks out of a payload the
// engine wrote (a version's, a page's) into buf, or a fresh slice when
// buf is too short, and returns it. A decode error is an invariant
// break, and panics.
func decodeWanted(payload []byte, want []bool, buf []Value) []Value {
	if len(buf) < len(want) {
		buf = make([]Value, len(want))
	}
	if err := decodeColumns(payload, buf, want); err != nil {
		panic(fmt.Sprintf("relational: row payload: %v", err))
	}
	return buf
}

// materializeLocked returns the row's chain head for a write, first
// giving a page-only row a version of its page payload stamped begin 0
// (the bytes copied, not decoded), so that write paths and undo logs
// only ever meet versions. Nil when the id names no row. Caller holds
// the db.mu write latch.
func (db *Database) materializeLocked(td *tableData, id RowID) *rowVersion {
	r := td.ref(id)
	if r.slot == 0 {
		return r.head
	}
	v := newVersion(db.payloadOf(td, r, nil), 0) // a page-only row needs no resolve
	td.rows[id] = v
	return v
}

// encodeRowPayload is the page-payload encoding of one row's values:
// a column count followed by each value in the WAL value encoding.
func encodeRowPayload(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendWALValue(b, v)
	}
	return b
}

// scratchCols sizes the stack buffers a row or a key decodes into; a
// wider table's grows into a slice of its own.
const scratchCols = 16

// newPayload encodes vals into a payload of its own, exactly sized: the
// one allocation a written version's row costs.
func newPayload(vals []Value) []byte {
	var buf [512]byte
	return bytes.Clone(encodeRowPayload(buf[:0], vals))
}

// decodeRowPayload appends a payload's values to dst[:0]; a nil dst
// decodes into a fresh, exactly sized slice.
func decodeRowPayload(dst []Value, b []byte) ([]Value, error) {
	ncols, sz := binary.Uvarint(b)
	if sz <= 0 || ncols > uint64(len(b)) {
		return nil, errWALCorrupt
	}
	b = b[sz:]
	vals := dst[:0]
	if cap(vals) < int(ncols) {
		vals = make([]Value, 0, ncols)
	}
	for range ncols {
		var v Value
		var err error
		v, b, err = decodeWALValue(b)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	if len(b) != 0 {
		return nil, errWALCorrupt
	}
	return vals, nil
}

// decodeColumns decodes into vals the payload columns want marks and
// walks past the others (skipWALValue); columns after the last marked
// one are not read. Index keys come from it (restore, replay, a
// version's removal) and so do the uniqueness checks' comparisons.
func decodeColumns(b []byte, vals []Value, want []bool) error {
	ncols, sz := binary.Uvarint(b)
	if sz <= 0 || ncols < uint64(len(want)) {
		return errWALCorrupt
	}
	b = b[sz:]
	for c, w := range want {
		var err error
		if w {
			vals[c], b, err = decodeWALValue(b)
		} else {
			b, err = skipWALValue(b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pagePlan is the outcome of checkpoint planning: the installs to hand
// to the store plus the bookkeeping the in-memory apply needs.
type pagePlan struct {
	installs   []pagestore.Install
	freedSlots []uint32
	gone       map[string][]RowID // dirty rows deleted as of the snapshot
}

// buildPageInstalls plans one checkpoint pass: every dirty row's
// committed image at the snapshot is packed into fresh copy-on-write
// pages, clean SURVIVOR rows sharing the superseded pages ride along so
// those slots can be freed whole, and rows deleted at the snapshot
// lose their slots. Runs outside the latches but for its ref and slot
// reads, which hold the read latch (never across page I/O): the snapshot
// pins visibility, ckptMu keeps any other pass from moving slots
// meanwhile, and the swapped-out dirty sets belong to this pass alone.
// Dirty images are resolved after the latch drops, as the registered
// snapshot may, and installed as the versions' own payload bytes;
// nothing is encoded or decoded, survivors included.
func (db *Database) buildPageInstalls(snap *Snapshot, dirty map[string][]RowID) (*pagePlan, error) {
	// Resolve images at the snapshot and collect the superseded slots.
	names := slices.Sorted(maps.Keys(dirty)) // db.tables' own keys
	plan := &pagePlan{gone: make(map[string][]RowID)}
	affectedTable := make(map[uint32]string)
	for _, name := range names {
		td, ids := db.tables[name], sortedIDs(dirty[name])
		dirty[name] = ids // sorted, for the survivors' membership test
		rows := make([]pagestore.InstallRow, 0, len(ids))
		for _, id := range ids {
			db.mu.RLock()
			r, s := td.ref(id), td.slotOf(id)
			db.mu.RUnlock()
			if s != 0 {
				affectedTable[s-1] = name
			}
			payload := db.payloadOf(td, r, snap.resolve)
			if payload == nil {
				plan.gone[name] = append(plan.gone[name], id)
				continue
			}
			rows = append(rows, pagestore.InstallRow{ID: int64(id), Payload: payload})
		}
		if len(rows) > 0 {
			plan.installs = append(plan.installs, pagestore.Install{Table: name, Rows: rows})
		}
	}

	// Survivors: clean rows mapped to an affected page move to a fresh
	// one, as the page's own payload bytes. Their committed image cannot
	// have changed since the page was written (any write would have marked
	// them dirty), so those bytes are what the snapshot resolves; each
	// page is read once, CRC-verified, straight from the store — not
	// through the pool, whose frames belong to the read path.
	plan.freedSlots = slices.Sorted(maps.Keys(affectedTable))
	surv := make(map[string][]pagestore.InstallRow)
	for _, slot := range plan.freedSlots {
		name := affectedTable[slot]
		td := db.tables[name]
		table, _, rows, err := db.pager.store.ReadPage(slot)
		if err == nil && table != name {
			err = fmt.Errorf("holds table %q, want %q", table, name)
		}
		if err != nil {
			return nil, fmt.Errorf("relational: checkpoint: page %d: %w", slot, err)
		}
		db.mu.RLock()
		for _, r := range rows {
			id := RowID(r.ID)
			if td.slotOf(id) != slot+1 {
				continue // row since moved to a newer page
			}
			if _, isDirty := slices.BinarySearch(dirty[name], id); isDirty {
				continue
			}
			if !td.ref(id).sees(snap.resolve) {
				// Unreachable in the protocol (a deletion marks the row
				// dirty), but drop the mapping rather than resurrecting.
				plan.gone[name] = append(plan.gone[name], id)
				continue
			}
			surv[name] = append(surv[name], pagestore.InstallRow(r))
		}
		db.mu.RUnlock()
	}
	for _, name := range names { // a page holds one table's rows, so survivors belong to dirty tables
		if rows := surv[name]; len(rows) > 0 {
			plan.installs = append(plan.installs, pagestore.Install{Table: name, Rows: rows})
		}
	}
	return plan, nil
}

// applyPagePlacements publishes a durable install into the in-memory
// state: placed rows' slots move to the fresh pages, each placed row
// whose one version every reader sees drops it (dropCleanLocked),
// vanished rows lose their slot and — once no reader sees them — their
// dead heads, and the superseded slots enter quarantine until no reader
// can still fault their old content; every index folds its delta into
// a new run (hashIndex.merge). The pass's own snapshot is still
// registered, so the horizon is at most its sequence: a version at or
// below the horizon is the image just installed.
func (db *Database) applyPagePlacements(placements []pagestore.PageInfo, plan *pagePlan) {
	p := db.pager
	db.mu.Lock()
	defer db.mu.Unlock()

	// Evict every slot this pass touched: freed slots hold stale images,
	// and a fresh placement may reuse a slot whose old content a stale
	// reader re-cached after an earlier invalidation.
	inval := make([]uint32, 0, len(plan.freedSlots)+len(placements))
	inval = append(inval, plan.freedSlots...)
	for _, pl := range placements {
		inval = append(inval, pl.Slot)
	}
	p.pool.Invalidate(inval)

	horizon := db.oldestVisibleSeq()
	for _, pl := range placements {
		td := db.tables[pl.Table]
		for _, id64 := range pl.Rows {
			id := RowID(id64)
			td.setSlot(id, pl.Slot+1)
			if v := td.rows[id]; v != nil {
				dropCleanLocked(td, id, v, horizon)
			}
		}
	}
	for name, ids := range plan.gone {
		td := db.tables[name]
		for _, id := range ids {
			if td.slotOf(id) != 0 {
				td.setSlot(id, 0)
				td.dirty = true // compaction drops the id once its head goes too
			}
			if v := td.rows[id]; v != nil && v.end.Load() <= horizon {
				db.versionsReclaimed.Add(int64(td.dropChainLocked(id, v)))
			}
		}
	}
	for _, td := range db.tables {
		if len(td.rows) == 0 {
			td.rows = make(map[RowID]*rowVersion) // a map never shrinks: let a drained window's go
		}
		for _, ix := range td.indexes {
			ix.merge()
		}
	}
	if len(plan.freedSlots) > 0 {
		p.quar = append(p.quar, quarBatch{seq: db.commitSeq.Load(), slots: plan.freedSlots})
	}
	db.drainPageQuarantineLocked()
}

// drainPageQuarantineLocked releases quarantined slot batches once the
// visibility horizon has passed their freeing epoch: strictly greater,
// so a reader pinned exactly at the epoch still blocks the release.
// Caller holds the db.mu write latch — the same latch all unregistered
// page faults run under, so a released slot can never be concurrently
// faulted through a stale mapping.
func (db *Database) drainPageQuarantineLocked() {
	p := db.pager
	if p == nil || len(p.quar) == 0 {
		return
	}
	oldest := db.oldestVisibleSeq()
	keep := p.quar[:0]
	for _, b := range p.quar {
		if oldest > b.seq {
			p.store.Release(b.slots)
		} else {
			keep = append(keep, b)
		}
	}
	tail := p.quar[len(keep):]
	for i := range tail {
		tail[i] = quarBatch{}
	}
	p.quar = keep
}

// dropCleanLocked makes a row page-only by deleting its version, when
// that version is the row's whole chain, committed, live and begun at or
// below upTo. The caller has seen that the row has a page slot, and
// passes the lower of the reclaim horizon (the horizon rule: every
// reader present and future sees the version) and a checkpoint sequence
// whose pages hold every version begun at or below it. Claim stamps
// compare greater than every sequence, so a claimed begin never passes.
// Index entries stay: the row's values are unchanged. Caller holds the
// db.mu write latch.
func dropCleanLocked(td *tableData, id RowID, v *rowVersion, upTo uint64) {
	if v.prev.Load() == nil && v.end.Load() == liveSeq && v.begin.Load() <= upTo {
		delete(td.rows, id)
	}
}

// dropChainLocked removes a dead row: every version of its chain, with
// their index entries. It returns the versions freed. Caller holds the
// db.mu write latch.
func (td *tableData) dropChainLocked(id RowID, head *rowVersion) int {
	n := 0
	for v := head; v != nil; {
		next := v.prev.Load()
		for _, ix := range td.indexes {
			if key, ok := ix.payloadKey(v.payload); ok {
				ix.removeKey(key, id)
			}
		}
		v.prev.Store(nil)
		n++
		v = next
	}
	delete(td.rows, id)
	td.dirty = true
	return n
}

// restoreFromPages rebuilds the id columns and index entries from the
// live pages the recovered directory maps: every restored row is
// page-only. Each page is read once, in slot order, CRC-verified and
// outside the pool, decoding of each row only the columns its table's
// indexes read. Each table's (id, slot) pairs are sorted once into
// exactly sized columns, and each index's (hash, id) entries once into
// its run, so a restart makes no map insert; every table, paged rows or
// none, leaves with a slot column. A row id on two live pages refuses
// the restore, naming both. Single-threaded, before serving traffic.
func (db *Database) restoreFromPages(rec *pagestore.Recovered) (rows int, err error) {
	p := db.pager
	type placed struct {
		id   RowID
		slot uint32
	}
	type restoring struct {
		vals    []Value // decode scratch, reused row to row
		pairs   []placed
		entries [][]indexEntry // per index of the table
	}
	tables := make(map[string]*restoring)
	pages := make(map[string]int)
	for _, pi := range rec.Pages {
		pages[pi.Table]++
	}
	for _, pi := range rec.Pages {
		td, err := db.tableData(pi.Table)
		if err != nil {
			return 0, fmt.Errorf("page directory: %w", err)
		}
		table, seq, prows, err := p.store.ReadPage(pi.Slot)
		if err == nil && (table != pi.Table || seq != pi.Seq) {
			err = fmt.Errorf("holds %q at sequence %d, the directory says %q at %d", table, seq, pi.Table, pi.Seq)
		}
		if err != nil {
			return 0, fmt.Errorf("page %d: %w", pi.Slot, err)
		}
		st := tables[pi.Table]
		if st == nil {
			// Size the table's pairs and index entries once — this
			// page's rows times the table's pages — not row by row.
			hint := len(prows) * pages[pi.Table]
			st = &restoring{vals: make([]Value, len(td.want)), pairs: make([]placed, 0, hint), entries: make([][]indexEntry, len(td.indexes))}
			for k := range td.indexes {
				st.entries[k] = make([]indexEntry, 0, hint)
			}
			tables[pi.Table] = st
		}
		for _, r := range prows {
			id := RowID(r.ID)
			if err := decodeColumns(r.Payload, st.vals, td.want); err != nil {
				return 0, fmt.Errorf("page %d row %s/%d: %w", pi.Slot, pi.Table, id, err)
			}
			st.pairs = append(st.pairs, placed{id, pi.Slot + 1})
			td.live++
			for k, ix := range td.indexes {
				if key, ok := ix.keyFor(st.vals); ok {
					st.entries[k] = append(st.entries[k], indexEntry{key, id})
				}
			}
			if id >= db.nextRowID {
				db.nextRowID = id + 1
			}
			rows++
		}
	}
	for name, td := range db.tables {
		var pairs []placed
		if st := tables[name]; st != nil {
			pairs = st.pairs
			for k, ix := range td.indexes {
				ix.fold(st.entries[k])
				st.entries[k] = nil // the run replaces them: let the GC have them
			}
		}
		slices.SortFunc(pairs, func(a, b placed) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.slot, b.slot)) })
		td.ids, td.slots = make([]RowID, len(pairs)), make([]uint32, len(pairs))
		for i, pr := range pairs {
			if i > 0 && pairs[i-1].id == pr.id {
				return 0, fmt.Errorf("row %s/%d appears on two live pages, %d and %d", name, pr.id, pairs[i-1].slot-1, pr.slot-1)
			}
			td.ids[i], td.slots[i] = pr.id, pr.slot
		}
	}
	return rows, nil
}
