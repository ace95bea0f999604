package relational

import (
	"hash/maphash"
	"slices"
	"strings"
)

// RowID identifies a stored row, mirroring Oracle's ROWID pseudo-column
// that the paper's translated SQL (e.g. "delete from book where rowid =
// t3") addresses rows by.
type RowID int64

// keySeed seeds every index key hash of the process. Index entries are
// never persisted — recovery rebuilds them from the page payloads — so
// the seed needs no stability across runs.
var keySeed = maphash.MakeSeed()

// collideKeys, set only by tests, puts every key of every index on one
// hash, so the value re-checks that make collisions safe are exercised.
var collideKeys bool

// hashKey hashes a composite key encoding.
func hashKey(b []byte) uint64 {
	if collideKeys {
		return 0
	}
	return maphash.Bytes(keySeed, b)
}

// hashIndex is an equality index over one or more columns. A key is the
// 64-bit hash of the composite encoding of the indexed column values,
// and the entries are two maps: one holds each key with exactly one id
// (every entry of a unique index, pointer-free, no heap object per
// key), many each key with two or more ids, ascending. insert promotes a
// key from one to many on its second id; removeKey demotes it when one
// id is left.
//
// A bucket is the candidate set of one hash, not of one value: distinct
// values may collide. That is safe because every consumer re-checks the
// values it resolves against the probe (appendMatch on the probed
// columns, checkUniqueness with its match), which buckets already need
// for ids whose versions a reader must not see. removeVersionEntries
// keeps an id when a remaining version has the same hash, which is
// exact: that version's entry is the same (hash, id) pair.
//
// Contract: buckets are read and written only under db.mu. A many
// bucket is handed out as the stored slice itself, so a caller iterates
// it before dropping the latch and never retains it; a one entry comes
// back through a one-element array the caller owns. Removal copies, so a
// caller holding the write latch may remove while it ranges over a
// bucket.
type hashIndex struct {
	name    string
	columns []int // positional column indexes
	one     map[uint64]RowID
	many    map[uint64][]RowID
	unique  bool
}

func newHashIndex(name string, columns []int, unique bool) *hashIndex {
	return &hashIndex{
		name:    name,
		columns: columns,
		one:     make(map[uint64]RowID),
		many:    make(map[uint64][]RowID),
		unique:  unique,
	}
}

// keyFor extracts the index key for a row's values. The boolean is false
// when any indexed column is NULL (NULLs are not indexed, matching SQL
// unique-constraint semantics).
func (ix *hashIndex) keyFor(values []Value) (uint64, bool) {
	var buf [64]byte
	b := buf[:0]
	for _, c := range ix.columns {
		if values[c].IsNull() {
			return 0, false
		}
		b = append(values[c].appendKey(b), 0x01)
	}
	return hashKey(b), true
}

// insert adds the row's id under its key, unless an indexed column is
// NULL or the id is already there. Ids are allocated monotonically, so
// the append is the common case; recovery walks pages in slot order, not
// ids, and takes the sorted insert.
func (ix *hashIndex) insert(id RowID, values []Value) {
	key, ok := ix.keyFor(values)
	if !ok {
		return
	}
	if old, ok := ix.one[key]; ok {
		if old != id {
			delete(ix.one, key)
			ix.many[key] = []RowID{min(old, id), max(old, id)}
		}
		return
	}
	b := ix.many[key]
	if len(b) == 0 {
		ix.one[key] = id
		return
	}
	i := len(b)
	if b[i-1] >= id {
		var found bool
		if i, found = slices.BinarySearch(b, id); found {
			return
		}
	}
	ix.many[key] = slices.Insert(b, i, id)
}

func (ix *hashIndex) remove(id RowID, values []Value) {
	if key, ok := ix.keyFor(values); ok {
		ix.removeKey(key, id)
	}
}

// removeKey drops one id from a bucket addressed by its key; the MVCC
// reclaimer uses it to clear entries of versions whose values it has
// already hashed. The shrunk bucket is a fresh slice, or the one id left.
func (ix *hashIndex) removeKey(key uint64, id RowID) {
	b := ix.many[key]
	i, found := slices.BinarySearch(b, id)
	switch {
	case len(b) == 0:
		if old, ok := ix.one[key]; ok && old == id {
			delete(ix.one, key)
		}
	case !found: // not in the bucket: nothing to drop
	case len(b) == 2:
		delete(ix.many, key)
		ix.one[key] = b[1-i]
	default:
		ix.many[key] = slices.Concat(b[:i], b[i+1:])
	}
}

// bucket returns the ascending candidate ids stored under key. A one
// entry is returned in buf, so a probe allocates nothing. Read it under
// db.mu only (see the type's contract).
func (ix *hashIndex) bucket(key uint64, buf *[1]RowID) []RowID {
	if id, ok := ix.one[key]; ok {
		buf[0] = id
		return buf[:]
	}
	return ix.many[key]
}

// lookup returns the bucket of the rows whose column cols[i] may hold
// values[i]; cols is any order the index matchesColumns. The caller
// re-checks the values (the bucket is a hash's candidate set).
func (ix *hashIndex) lookup(cols []int, values []Value, buf *[1]RowID) []RowID {
	var kb [64]byte
	b := kb[:0]
	for _, c := range ix.columns {
		v := values[slices.Index(cols, c)]
		if v.IsNull() {
			return nil
		}
		b = append(v.appendKey(b), 0x01)
	}
	return ix.bucket(hashKey(b), buf)
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
