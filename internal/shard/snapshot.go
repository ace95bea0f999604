package shard

import (
	"repro/internal/obs"
	"repro/internal/relational"
)

// SnapVec is a consistent snapshot vector: one pinned snapshot per
// shard, all taken under the group's vector latch so any cross-shard
// transaction is visible on every shard it touched or on none. The
// plan layer's CheckData/CheckBatchData therefore keep their
// snapshot-isolation contract over a shard group.
type SnapVec struct {
	subs []*relational.Snapshot
	rds  []relational.Reader
}

// Close releases every shard's pin so its reclaimer can advance.
func (v *SnapVec) Close() {
	for _, s := range v.subs {
		s.Close()
	}
}

// Seq is the sum of the per-shard pinned sequences: not a global
// ordering of individual commits, but a monotone logical clock (every
// commit raises exactly one shard's sequence, cross-shard commits are
// atomic under the vector latch), which is all callers use it for.
func (v *SnapVec) Seq() uint64 {
	var n uint64
	for _, s := range v.subs {
		n += s.Seq()
	}
	return n
}

// VersionStats folds the per-shard version-store shapes at the pinned
// sequences.
func (v *SnapVec) VersionStats() relational.VersionStats {
	parts := make([]relational.VersionStats, len(v.subs))
	for i, s := range v.subs {
		parts[i] = s.VersionStats()
	}
	return obs.FoldStats(parts...)
}

// ---- Reader at the pinned vector. Point reads route by id residue;
// scans and lookups merge in ascending row-id order.

func (v *SnapVec) Schema() *relational.Schema { return v.subs[0].Schema() }

func (v *SnapVec) shardOf(id relational.RowID) int {
	if id < 1 {
		return 0
	}
	return int((int64(id) - 1) % int64(len(v.subs)))
}

func (v *SnapVec) Get(table string, id relational.RowID) (*relational.Row, error) {
	return v.subs[v.shardOf(id)].Get(table, id)
}

func (v *SnapVec) Scan(table string, fn func(*relational.Row) bool) error {
	return scanMerged(v.rds, table, fn)
}

func (v *SnapVec) LookupEqual(table string, columns []string, values []relational.Value) ([]relational.RowID, error) {
	return idsMerged(v.rds, table, columns, values)
}

func (v *SnapVec) LookupRows(table string, columns []string, values []relational.Value) ([]relational.Row, error) {
	return lookupMerged(v.rds, table, columns, values)
}

func (v *SnapVec) HasIndexOn(table string, columns []string) bool {
	return v.subs[0].HasIndexOn(table, columns)
}

func (v *SnapVec) RowCount(table string) int {
	n := 0
	for _, s := range v.subs {
		n += s.RowCount(table)
	}
	return n
}

func (v *SnapVec) TotalRows() int {
	n := 0
	for _, s := range v.subs {
		n += s.TotalRows()
	}
	return n
}

var _ relational.Snap = (*SnapVec)(nil)
