package relational

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/pagestore"
)

// The pager glues the MVCC engine to the paged checkpoint store. The
// page store holds the durable base image as slotted 4KiB heap pages;
// the buffer pool bounds how much of that image is resident, as page
// BYTES (CRC-verified once per load, never decoded as a whole, read into
// buffers that evicted frames hand back).
// In-memory version chains are a write-back cache over it. A row whose
// one committed version is on its page and seen by every reader keeps
// no version at all: it is PAGE-ONLY, named by its table's rowSlot and
// absent from td.rows, and each read of it decodes that one row's
// payload out of the pooled page (faultRow), so a fault costs the row
// it touches, not the page, and a cold row costs memory only its slot,
// its scan-order entry and its index entries. That is what lets the
// dataset exceed RAM under a hard PageCacheBytes budget.
//
// There is one kind of checkpoint pass, the incremental one: it pages
// the rows dirtied since the previous pass and drops their versions on
// the spot. A dataset therefore never has to exist in memory to reach
// the pages — Load (load.go) streams it in as ordinary transactions with
// a pass per window, leaving behind a first boot what a restart leaves:
// index entries, rowSlot, the store's directory and the pool. OpenWAL on
// a populated database marks every row dirty once and runs that pass.
//
// A published page is the only durable record of which rows it holds
// (the directory maps slots to pages). A pass reads the pages it
// supersedes once, outside the pool, to carry their clean survivors'
// bytes forward; recovery reads every live page once (restoreFromPages).
//
// Concurrency contract (load-bearing — see faultRow):
//
//   - rowSlot is written only by checkpoint apply (db.mu write latch,
//     passes serialized by ckptMu) and recovery (single-threaded). Every
//     reader, and every writer, resolves a row id under db.mu, in either
//     mode, through tableData.ref: td.rows first, then rowSlot.
//     Checkpoint planning reads rowSlot without a latch: ckptMu
//     serializes planners against appliers.
//   - No version and a rowSlot entry mean committed and visible to every
//     reader, which two rules keep true. The horizon rule: a version is
//     dropped only when it began at or below the reclaim horizon
//     (dropCleanLocked, called by checkpoint apply and the reclaimer).
//     The tombstone rule: a deleted row's dead head stays while rowSlot
//     maps it (reclaimLocked), and the pass that unmaps it drops the head
//     once no reader sees it (applyPagePlacements). A write or replay
//     that touches a page-only row first gives it a version stamped
//     begin 0 (materializeLocked): the page's own sequence may be newer
//     than a pinned reader, and 0 is older than every one.
//   - Unregistered readers (Database.Get, Scan, index matching, write
//     paths) may fault ONLY while holding db.mu (either mode), because
//     quarantined slots are released only under the db.mu write latch.
//   - Registered readers (Snapshot, Txn) may fault after dropping the
//     latch: they pin oldestVisibleSeq, and a freed slot's quarantine
//     batch is not released until every reader registered at or before
//     the freeing apply has closed.
//   - Page bytes are valid only while their pool frame is pinned: the
//     pool reads the next miss into an evicted frame's buffer. faultRow
//     decodes its row into a fresh slice before it unpins, so nothing a
//     reader gets from the pager aliases a pool buffer.
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
	if slotPlus1 == 0 {
		panic(fmt.Sprintf("relational: paged row %s/%d has no page slot", table, id))
	}
	slot := slotPlus1 - 1
	pageTable, page, release, err := p.pool.Get(slot)
	if err != nil {
		panic(fmt.Sprintf("relational: fault page %d for row %s/%d: %v", slot, table, id, err))
	}
	defer release() // after the decode: the page bytes are only ours while pinned
	if pageTable != table {
		panic(fmt.Sprintf("relational: page %d holds table %q, want %q (row %d)", slot, pageTable, table, id))
	}
	payload, ok := pagestore.FindRow(page, int64(id))
	if !ok {
		panic(fmt.Sprintf("relational: row %s/%d missing from page %d", table, id, slot))
	}
	vals, err := decodeRowPayload(payload)
	if err != nil {
		panic(fmt.Sprintf("relational: page slot %d row %s/%d: %v", slot, table, id, err))
	}
	return vals
}

// rowRef is what resolving one row id under db.mu finds: the row's
// version chain head, or for a page-only row the slot its one committed
// version faults from. A ref with neither names no row.
type rowRef struct {
	head *rowVersion
	id   RowID
	slot uint32 // 1 + the page slot of a page-only row, else 0
}

// ref resolves id: its chain head, else its rowSlot entry. Every read
// of a row id goes through it. Caller holds db.mu in either mode.
func (td *tableData) ref(id RowID) rowRef {
	if v := td.rows[id]; v != nil {
		return rowRef{head: v, id: id}
	}
	if s, ok := td.rowSlot[id]; ok {
		return rowRef{id: id, slot: s + 1}
	}
	return rowRef{id: id}
}

// found reports whether r names a row, seen by some reader or not.
func (r rowRef) found() bool { return r.head != nil || r.slot != 0 }

// sees reports whether a reader sees r's row, resolve picking the
// version of an in-memory chain. A page-only row is seen by everyone.
func (r rowRef) sees(resolve func(*rowVersion) *rowVersion) bool {
	return r.slot != 0 || resolve(r.head) != nil
}

// see returns the row a reader sees through r, nil when it sees none:
// the visible version's own row (immutable: never mutated), or a
// page-only row's image faulted into fresh values. The caller must
// satisfy the pager's concurrency contract (hold db.mu, or be a
// registered reader).
func (db *Database) see(td *tableData, r rowRef, resolve func(*rowVersion) *rowVersion) *Row {
	if r.slot != 0 {
		return &Row{ID: r.id, Values: db.pager.faultRow(strings.ToLower(td.def.Name), r.slot, r.id)}
	}
	if v := resolve(r.head); v != nil {
		return &v.row
	}
	return nil
}

// materializeLocked returns the row's chain head for a write, first
// giving a page-only row a version of its page image stamped begin 0,
// so that write paths and undo logs only ever meet versions. Nil when
// the id names no row. Caller holds the db.mu write latch.
func (db *Database) materializeLocked(td *tableData, id RowID) *rowVersion {
	r := td.ref(id)
	if r.slot == 0 {
		return r.head
	}
	v := newVersion(*db.see(td, r, nil), 0) // a page-only row needs no resolve
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

func decodeRowPayload(b []byte) ([]Value, error) {
	ncols, sz := binary.Uvarint(b)
	if sz <= 0 || ncols > uint64(len(b)) {
		return nil, errWALCorrupt
	}
	b = b[sz:]
	vals := make([]Value, 0, ncols)
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
// one are not read. Recovery uses it to derive index keys.
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
// are dropped from rowSlot. Runs outside the latches: the snapshot pins
// visibility, ckptMu serializes rowSlot access, and the swapped-out
// dirty sets belong to this pass alone. Dirty images are encoded straight
// from the versions' own value slices (Snapshot.values), never from a
// copy; survivors are never decoded at all.
func (db *Database) buildPageInstalls(snap *Snapshot, dirty map[string]map[RowID]struct{}) (*pagePlan, error) {
	p := db.pager

	names := make([]string, 0, len(dirty))
	for name := range dirty {
		names = append(names, name)
	}
	sort.Strings(names)

	// Resolve images at the snapshot and collect the superseded slots.
	plan := &pagePlan{gone: make(map[string][]RowID)}
	affectedTable := make(map[uint32]string)
	for _, name := range names {
		td, err := db.tableData(name)
		if err != nil {
			return nil, err
		}
		set := dirty[name]
		ids := make([]RowID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
			if s, ok := td.rowSlot[id]; ok {
				affectedTable[s] = name
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

		rows := make([]pagestore.InstallRow, 0, len(ids))
		for _, id := range ids {
			vals, ok := snap.values(td, id)
			if !ok {
				plan.gone[name] = append(plan.gone[name], id)
				continue
			}
			rows = append(rows, pagestore.InstallRow{ID: int64(id), Payload: encodeRowPayload(nil, vals)})
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
	affected := make([]uint32, 0, len(affectedTable))
	for s := range affectedTable {
		affected = append(affected, s)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

	plan.freedSlots = affected
	surv := make(map[string][]pagestore.InstallRow)
	for _, slot := range affected {
		name := affectedTable[slot]
		td, err := db.tableData(name)
		if err != nil {
			return nil, err
		}
		table, _, rows, err := p.store.ReadPage(slot)
		if err == nil && table != name {
			err = fmt.Errorf("holds table %q, want %q", table, name)
		}
		if err != nil {
			return nil, fmt.Errorf("relational: checkpoint: page %d: %w", slot, err)
		}
		for _, r := range rows {
			id := RowID(r.ID)
			if td.rowSlot[id] != slot {
				continue // row since moved to a newer page
			}
			if _, isDirty := dirty[name][id]; isDirty {
				continue
			}
			if !snap.ref(td, id).sees(snap.resolve) {
				// Unreachable in the protocol (a deletion marks the row
				// dirty), but drop the mapping rather than resurrecting.
				plan.gone[name] = append(plan.gone[name], id)
				continue
			}
			surv[name] = append(surv[name], pagestore.InstallRow(r))
		}
	}
	for _, name := range names { // a page holds one table's rows, so survivors belong to dirty tables
		if rows := surv[name]; len(rows) > 0 {
			plan.installs = append(plan.installs, pagestore.Install{Table: name, Rows: rows})
		}
	}
	return plan, nil
}

// applyPagePlacements publishes a durable install into the in-memory
// state: row->slot mappings move to the fresh pages, each placed row
// whose one version every reader sees drops it (dropCleanLocked),
// vanished rows drop their mapping and — once no reader sees them — their
// dead heads, and the superseded slots enter quarantine until no reader
// can still fault their old content. The pass's own snapshot is still
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
		if td.rowSlot == nil {
			td.rowSlot = make(map[RowID]uint32)
		}
		for _, id64 := range pl.Rows {
			id := RowID(id64)
			td.rowSlot[id] = pl.Slot
			if v := td.rows[id]; v != nil {
				dropCleanLocked(td, id, v, horizon)
			}
		}
	}
	for name, ids := range plan.gone {
		td := db.tables[name]
		for _, id := range ids {
			delete(td.rowSlot, id)
			if v := td.rows[id]; v != nil && v.end.Load() <= horizon {
				db.versionsReclaimed.Add(int64(td.dropChainLocked(id, v)))
			}
		}
	}
	for _, td := range db.tables {
		if len(td.rows) == 0 {
			td.rows = make(map[RowID]*rowVersion) // a map never shrinks: let a drained window's go
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
// below upTo, and rowSlot maps the row. Callers pass the lower of the
// reclaim horizon (the horizon rule: every reader present and future
// sees the version) and a checkpoint sequence whose pages hold every
// version begun at or below it. Claim stamps compare greater than every
// sequence, so a claimed begin never passes. Index entries stay: the
// row's values are unchanged. Caller holds the db.mu write latch.
func dropCleanLocked(td *tableData, id RowID, v *rowVersion, upTo uint64) {
	if v.prev.Load() != nil || v.end.Load() != liveSeq || v.begin.Load() > upTo {
		return
	}
	if _, ok := td.rowSlot[id]; ok {
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
			ix.remove(id, v.row.Values)
		}
		v.prev.Store(nil)
		n++
		v = next
	}
	delete(td.rows, id)
	td.dirty = true
	return n
}

// restoreFromPages rebuilds rowSlot and index entries from the live
// pages the recovered directory maps: every restored row is page-only.
// Each page is read once, in slot order, CRC-verified and outside the
// pool, decoding of each row only the columns its table's indexes read.
// Scan order is restored as ascending row id, which equals insertion
// order because ids are allocated monotonically. Single-threaded, before
// serving traffic.
func (db *Database) restoreFromPages(rec *pagestore.Recovered) (rows int, err error) {
	p := db.pager
	type restoring struct {
		want []bool  // the columns some index reads, up to the last one
		vals []Value // decode scratch, reused row to row
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
			// Size the table's maps (empty since resetStorage) once — this
			// page's rows times the table's pages — not row by row.
			hint := len(prows) * pages[pi.Table]
			st = &restoring{}
			td.rowSlot = make(map[RowID]uint32, hint)
			for _, ix := range td.indexes {
				if ix.unique {
					ix.one = make(map[uint64]RowID, hint)
				}
				for _, c := range ix.columns {
					if c >= len(st.want) {
						st.want = append(st.want, make([]bool, c+1-len(st.want))...)
					}
					st.want[c] = true
				}
			}
			st.vals = make([]Value, len(st.want))
			tables[pi.Table] = st
		}
		for _, r := range prows {
			id := RowID(r.ID)
			if err := decodeColumns(r.Payload, st.vals, st.want); err != nil {
				return 0, fmt.Errorf("page %d row %s/%d: %w", pi.Slot, pi.Table, id, err)
			}
			n := len(td.rowSlot)
			if td.rowSlot[id] = pi.Slot; len(td.rowSlot) == n {
				return 0, fmt.Errorf("page %d: row %s/%d appears on two live pages", pi.Slot, pi.Table, id)
			}
			td.order = append(td.order, id)
			td.live++
			for _, ix := range td.indexes {
				ix.insert(id, st.vals)
			}
			if id >= db.nextRowID {
				db.nextRowID = id + 1
			}
			rows++
		}
	}
	for _, td := range db.tables {
		sort.Slice(td.order, func(i, j int) bool { return td.order[i] < td.order[j] })
	}
	return rows, nil
}
