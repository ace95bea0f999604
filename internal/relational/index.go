package relational

import (
	"slices"
	"strings"
)

// RowID identifies a stored row, mirroring Oracle's ROWID pseudo-column
// that the paper's translated SQL (e.g. "delete from book where rowid =
// t3") addresses rows by.
type RowID int64

// hashIndex is an equality index over one or more columns. Keys are the
// composite encoding of the indexed column values; each key maps to the
// ascending ids of the rows carrying those values (one pointer-free
// slice per key; a unique key's bucket is a single id).
//
// Contract: buckets are read and written only under db.mu. lookup hands
// out the stored bucket itself, so a caller iterates it before dropping
// the latch and never retains it; removal copies, so a caller holding
// the write latch may remove while it ranges over a bucket.
type hashIndex struct {
	name    string
	columns []int // positional column indexes
	entries map[string][]RowID
	unique  bool
}

func newHashIndex(name string, columns []int, unique bool) *hashIndex {
	return &hashIndex{
		name:    name,
		columns: columns,
		entries: make(map[string][]RowID),
		unique:  unique,
	}
}

// keyFor extracts the index key for a row's values. The boolean is false
// when any indexed column is NULL (NULLs are not indexed, matching SQL
// unique-constraint semantics).
func (ix *hashIndex) keyFor(values []Value) (string, bool) {
	var buf [64]byte
	b := buf[:0]
	for _, c := range ix.columns {
		if values[c].IsNull() {
			return "", false
		}
		b = append(values[c].appendKey(b), 0x01)
	}
	return string(b), true
}

func (ix *hashIndex) insert(id RowID, values []Value) {
	if key, ok := ix.keyFor(values); ok {
		ix.insertKey(key, id)
	}
}

// insertKey adds one id under a precomputed key; an id already present
// is left alone. Ids are allocated monotonically, so the append is the
// common case; recovery rebuilds entries in page order from the
// directory's persisted row metadata and takes the sorted insert.
func (ix *hashIndex) insertKey(key string, id RowID) {
	b := ix.entries[key]
	i := len(b)
	if i > 0 && b[i-1] >= id {
		var found bool
		if i, found = slices.BinarySearch(b, id); found {
			return
		}
	}
	ix.entries[key] = slices.Insert(b, i, id)
}

func (ix *hashIndex) remove(id RowID, values []Value) {
	if key, ok := ix.keyFor(values); ok {
		ix.removeKey(key, id)
	}
}

// removeKey drops one id from a bucket addressed by its encoded key;
// the MVCC reclaimer uses it to clear entries of versions whose values
// it has already re-encoded. The shrunk bucket is a fresh slice.
func (ix *hashIndex) removeKey(key string, id RowID) {
	b := ix.entries[key]
	if i, found := slices.BinarySearch(b, id); !found {
		return
	} else if len(b) == 1 {
		delete(ix.entries, key)
	} else {
		ix.entries[key] = slices.Concat(b[:i], b[i+1:])
	}
}

// lookup returns the bucket, ascending, of the rows whose column cols[i]
// holds values[i]; cols is any order the index matchesColumns. Read the
// bucket under db.mu only (see the type's contract).
func (ix *hashIndex) lookup(cols []int, values []Value) []RowID {
	var buf [64]byte
	b := buf[:0]
	for _, c := range ix.columns {
		v := values[slices.Index(cols, c)]
		if v.IsNull() {
			return nil
		}
		b = append(v.appendKey(b), 0x01)
	}
	return ix.entries[string(b)]
}

// matchesColumns reports whether the index covers exactly the given
// positional columns (order-insensitive).
func (ix *hashIndex) matchesColumns(cols []int) bool {
	if len(cols) != len(ix.columns) {
		return false
	}
	for _, c := range ix.columns {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}

func indexName(table string, cols []string) string {
	return "ix_" + strings.ToLower(table) + "_" + strings.ToLower(strings.Join(cols, "_"))
}
