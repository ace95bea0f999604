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
// In-memory version chains are a write-back cache over it: a committed,
// clean row may be DEMOTED to a value-less stub version (Values == nil)
// that carries only its MVCC stamps and the heap slot of its page; each
// read of a stub decodes that one row's payload out of the pooled page
// (faultRow), so a fault costs the row it touches, not the page. That
// is what lets the dataset exceed RAM under a hard PageCacheBytes budget.
//
// There is one kind of checkpoint pass, the incremental one: it pages
// the rows dirtied since the previous pass and demotes them on the spot.
// A dataset therefore never has to exist in memory to reach the pages —
// Load (load.go) streams it in as ordinary transactions with a pass per
// window, leaving behind a first boot what a restart leaves: stubs,
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
//     passes serialized by ckptMu) and recovery (single-threaded).
//     Checkpoint planning reads it without a latch: ckptMu serializes
//     planners against appliers. Readers never touch it — a stub
//     carries its own slot in the version's pageSlot stamp.
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

	// rowSlot maps table -> row id -> heap slot of the page holding the
	// row's checkpointed image.
	rowSlot map[string]map[RowID]uint32

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
	return &pager{
		store:   store,
		pool:    pagestore.NewPool(store, cacheBytes),
		rowSlot: make(map[string]map[RowID]uint32),
	}
}

// faultRow returns one row's committed values from its page: the page
// image comes through the buffer pool (CRC-verified bytes, cached as
// read) and only the wanted row's payload is decoded, into a fresh
// slice the caller owns. slotPlus1 is the version's pageSlot stamp
// (slot+1; 0 means "no page", which is an invariant violation for a
// stub). Panics on I/O error, corruption, or a missing row: the slot
// came from the page directory and the quarantine keeps referenced
// slots from being rewritten, so these are unrecoverable invariant
// breaks, not ordinary errors.
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

// versionValues resolves a version's values, faulting its page in when
// the version is a demoted stub. The caller must satisfy the pager's
// concurrency contract (hold db.mu, or be a registered reader). A
// resident version's slice must not be mutated; a faulted one is the
// caller's own.
func (db *Database) versionValues(td *tableData, v *rowVersion) []Value {
	if vals := v.row.Values; vals != nil {
		return vals
	}
	return db.pager.faultRow(strings.ToLower(td.def.Name), v.pageSlot.Load(), v.row.ID)
}

// materializeLocked replaces a demoted stub head with a materialized
// copy carrying the same stamps, so write paths and undo logs never
// handle value-less versions. No-op when the head already has values.
// Caller holds the db.mu write latch.
func (db *Database) materializeLocked(td *tableData, id RowID) {
	v := td.rows[id]
	if v == nil || v.row.Values != nil {
		return
	}
	nv := &rowVersion{row: Row{ID: id, Values: db.versionValues(td, v)}}
	nv.begin.Store(v.begin.Load())
	nv.end.Store(v.end.Load())
	nv.pageSlot.Store(v.pageSlot.Load())
	td.rows[id] = nv
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
			if s, ok := p.rowSlot[name][id]; ok {
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
			if p.rowSlot[name][id] != slot {
				continue // row since moved to a newer page
			}
			if _, isDirty := dirty[name][id]; isDirty {
				continue
			}
			if snap.version(td, id) == nil {
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
// state: row->slot mappings move to the fresh pages, freshly
// checkpointed clean heads are stamped with their page slot and — when
// their whole chain is a single committed version — demoted to stubs,
// vanished rows drop their mapping, and the superseded slots enter
// quarantine until no reader can still fault their old content.
func (db *Database) applyPagePlacements(snapSeq uint64, placements []pagestore.PageInfo, plan *pagePlan) {
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

	for _, pl := range placements {
		slots := p.rowSlot[pl.Table]
		if slots == nil {
			slots = make(map[RowID]uint32)
			p.rowSlot[pl.Table] = slots
		}
		td := db.tables[pl.Table]
		for _, id64 := range pl.Rows {
			id := RowID(id64)
			slots[id] = pl.Slot
			if td == nil {
				continue
			}
			v := td.rows[id]
			if v == nil {
				continue
			}
			begin := v.begin.Load()
			if isTxnMark(begin) || begin > snapSeq || v.end.Load() != liveSeq {
				continue // the installed image is not this head's value
			}
			v.pageSlot.Store(pl.Slot + 1)
			if v.row.Values != nil && v.prev.Load() == nil {
				stub := &rowVersion{row: Row{ID: id}}
				stub.begin.Store(begin)
				stub.end.Store(liveSeq)
				stub.pageSlot.Store(pl.Slot + 1)
				td.rows[id] = stub
			}
		}
	}
	for name, ids := range plan.gone {
		slots := p.rowSlot[name]
		for _, id := range ids {
			delete(slots, id)
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

// demoteCleanLocked drops the in-memory values of a cold head version
// whose checkpointed page image is current: single committed version,
// not deleted, page slot stamped by the checkpoint that wrote it. The
// reclaimer calls it after truncating chains, which is what lets a
// dataset larger than RAM converge to stubs + the bounded buffer pool.
// Caller holds the db.mu write latch.
func demoteCleanLocked(td *tableData, id RowID, v *rowVersion) bool {
	if v.row.Values == nil || v.prev.Load() != nil || v.end.Load() != liveSeq {
		return false
	}
	begin := v.begin.Load()
	slot := v.pageSlot.Load()
	if isTxnMark(begin) || slot == 0 {
		return false
	}
	stub := &rowVersion{row: Row{ID: id}}
	stub.begin.Store(begin)
	stub.end.Store(liveSeq)
	stub.pageSlot.Store(slot)
	td.rows[id] = stub
	return true
}

// restoreFromPages rebuilds rowSlot, value-less stubs and index entries
// from the live pages the recovered directory maps: each page is read
// once, in slot order, CRC-verified and outside the pool, decoding of
// each row only the columns its table's indexes read. Scan order is
// restored as ascending row id, which equals insertion order because ids
// are allocated monotonically. Single-threaded, before serving traffic.
func (db *Database) restoreFromPages(rec *pagestore.Recovered) (rows int, err error) {
	p := db.pager
	type restoring struct {
		want  []bool  // the columns some index reads, up to the last one
		vals  []Value // decode scratch, reused row to row
		slots map[RowID]uint32
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
			st = &restoring{slots: make(map[RowID]uint32, hint)}
			p.rowSlot[pi.Table] = st.slots
			td.rows = make(map[RowID]*rowVersion, hint)
			for _, ix := range td.indexes {
				if ix.unique {
					ix.entries = make(map[string][]RowID, hint)
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
			stub := &rowVersion{row: Row{ID: id}}
			stub.begin.Store(pi.Seq)
			stub.end.Store(liveSeq)
			stub.pageSlot.Store(pi.Slot + 1)
			n := len(td.rows)
			if td.rows[id] = stub; len(td.rows) == n {
				return 0, fmt.Errorf("page %d: row %s/%d appears on two live pages", pi.Slot, pi.Table, id)
			}
			td.order = append(td.order, id)
			td.live++
			st.slots[id] = pi.Slot
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
