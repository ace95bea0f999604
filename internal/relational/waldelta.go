package relational

// Dirty-row tracking makes the checkpoint pause O(dirty-pages) instead
// of O(database). Tables accumulate the ids of rows written since the
// last checkpoint (marked at commit-stamp time, under commitMu); a
// checkpoint pass swaps the dirty sets out and packs ONLY those rows —
// each as its current committed image, or a directory tombstone if it
// no longer exists — into fresh heap pages (see buildPageInstalls).
// Recovery maps the page directory, then replays the WAL tail as
// before.

// markDirtyLocked records every row t wrote into its table's dirty set.
// Called under commitMu at stamp time — after t's sequence is assigned,
// before any checkpoint can swap the sets — so a row written by ANY
// transaction that commits after checkpoint C is guaranteed to be in the
// set checkpoint C+1 swaps out. Marks from a commit that subsequently
// rolls back are harmless: the checkpoint packs the committed image (or
// tombstone) the snapshot resolves, not the undone write.
func (db *Database) markDirtyLocked(t *Txn) {
	if db.wal == nil {
		return
	}
	for i := range t.log {
		en := &t.log[i]
		if td, err := db.tableData(en.table); err == nil {
			td.markDirtyRow(en.id)
		}
	}
}

// swapDirtyRowsLocked detaches every table's dirty set, leaving empty
// sets behind. Caller holds commitMu — the latch all marking happens
// under — so no mark can race the swap or land in the detached sets.
func (db *Database) swapDirtyRowsLocked() map[string][]RowID {
	var out map[string][]RowID
	for name, td := range db.tables {
		if len(td.dirtyRows) == 0 {
			continue
		}
		if out == nil {
			out = make(map[string][]RowID, len(db.tables))
		}
		out[name] = td.dirtyRows
		td.dirtyRows = nil
	}
	return out
}

// mergeDirtyRows folds a swapped-out dirty set back into the tables
// after a failed checkpoint, so the rows stay covered by the next pass.
func (db *Database) mergeDirtyRows(dirty map[string][]RowID) {
	if len(dirty) == 0 {
		return
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	for name, ids := range dirty {
		td, ok := db.tables[name]
		if !ok {
			continue
		}
		for _, id := range ids {
			td.markDirtyRow(id)
		}
	}
}
