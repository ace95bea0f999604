package relational

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"
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
// hash, so the value re-checks that make collisions safe are exercised:
// under it no index is exact.
var collideKeys bool

// hashKey hashes a composite key encoding.
func hashKey(b []byte) uint64 {
	if collideKeys {
		return 0
	}
	return maphash.Bytes(keySeed, b)
}

// exactKey is an exact index's key of v: an integer (an integral Float
// alike) times an odd constant, a bijection of the 64-bit integers whose
// keys of consecutive values spread evenly over the hash space, as
// searchHashes wants. Any other value has no key.
func exactKey(v Value) (uint64, bool) {
	i, ok := v.Int, v.Kind == KindInt
	if v.Kind == KindFloat {
		i, ok = v.integral()
	}
	if !ok || collideKeys {
		return 0, ok
	}
	return uint64(i) * 0x9E3779B97F4A7C15, true
}

// hashIndex is an equality index over one or more columns. A key is the
// 64-bit hash of the composite encoding of the indexed column values,
// and an entry is a (hash, id) pair in one of two tiers. The run holds
// what the last checkpoint merge or restore folded in: two parallel,
// exactly sized columns sorted by (hash, id), 16 B an entry and nothing
// per key, so a bucket's share is a subslice of ids; a removed run
// entry is marked dead in place until the next merge drops it. The delta
// holds the entries inserted since, in two maps: one for keys with one
// delta id (pointer-free), many for keys with two or more, ascending. A
// pair sits in at most one tier. A database without a pager never
// merges: every entry stays in the delta.
//
// A bucket is the candidate set of one hash, not of one value: distinct
// values may collide. That is safe because every consumer re-checks the
// values it resolves against the probe (appendMatch on the probed
// columns, checkUniqueness with its match), which buckets already need
// for ids whose versions a reader must not see. removeVersionEntries
// keeps an id when a remaining version has the same hash, which is
// exact: that version's entry is the same (hash, id) pair.
//
// An index over one INTEGER or DATE column is exact: its key is
// exactKey of the value, so equal keys mean equal values and a bucket is
// the candidate set of one value. A page-only row's entries are exactly
// its page payload's keys (pager.go), so a consumer takes a page-only
// candidate of an exact index without reading its page (verified).
//
// Contract: buckets are read and written only under db.mu. A bucket may
// be handed out as stored memory (a many slice, a run subslice), so a
// caller iterates it before dropping the latch, never retains it, and
// copies it before removing from it; a one entry comes back through a
// one-element array the caller owns.
type hashIndex struct {
	columns []int  // positional column indexes
	want    []bool // the columns keyFor reads, up to the last (decodeColumns)
	unique  bool
	exact   bool // one INTEGER or DATE column, keyed by exactKey

	hashes []uint64 // the run, ascending; parallel to ids
	ids    []RowID  // ascending within a hash; deadBit marks a removed entry
	dead   int      // entries of the run marked dead
	top    RowID    // no run entry has a higher id

	one  map[uint64]RowID // the delta
	many map[uint64][]RowID
}

// deadBit marks a run entry removed since the last merge. Row ids are
// positive, so a marked id is negative and orders by its low bits.
const deadBit = RowID(-1 << 63)

// indexEntry is one (hash, id) pair on its way into a run.
type indexEntry struct {
	hash uint64
	id   RowID
}

// compare orders entries as a run holds them: by hash, then by id.
func (e indexEntry) compare(o indexEntry) int {
	return cmp.Or(cmp.Compare(e.hash, o.hash), cmp.Compare(e.id, o.id))
}

func newHashIndex(columns []int, unique, exact bool) *hashIndex {
	ix := &hashIndex{columns: columns, want: markColumns(nil, columns), unique: unique, exact: exact}
	ix.one, ix.many = make(map[uint64]RowID), make(map[uint64][]RowID)
	return ix
}

// markColumns marks cols in want, growing it to the last one.
func markColumns(want []bool, cols []int) []bool {
	for _, c := range cols {
		if c >= len(want) {
			want = append(want, make([]bool, c+1-len(want))...)
		}
		want[c] = true
	}
	return want
}

// payloadKey is keyFor of a row payload, decoding only the key's
// columns.
func (ix *hashIndex) payloadKey(payload []byte) (uint64, bool) {
	var buf [scratchCols]Value
	return ix.keyFor(decodeWanted(payload, ix.want, buf[:]))
}

// keyFor extracts the index key for a row's values. The boolean is false
// when any indexed column is NULL (NULLs are not indexed, matching SQL
// unique-constraint semantics).
func (ix *hashIndex) keyFor(values []Value) (uint64, bool) {
	if ix.exact {
		return exactKey(values[ix.columns[0]])
	}
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
// NULL or the pair is already there (a dead run entry revives). A fresh
// id is above the run's, so it skips the run and takes the delta's append.
func (ix *hashIndex) insert(id RowID, values []Value) {
	key, ok := ix.keyFor(values)
	if !ok {
		return
	}
	if i, found := ix.runFind(key, id); found {
		if isDead(ix.ids[i]) {
			ix.ids[i], ix.dead = id, ix.dead-1
		}
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

// removeKey drops one (key, id) pair. A run entry is marked dead in
// place; a shrunk delta bucket is a fresh slice, or the one id left.
func (ix *hashIndex) removeKey(key uint64, id RowID) {
	if i, found := ix.runFind(key, id); found {
		if !isDead(ix.ids[i]) {
			ix.ids[i], ix.dead = ix.ids[i]|deadBit, ix.dead+1
		}
		return
	}
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

// runBucket returns the run's positions [lo, hi) under key; the end is
// walked to, as a bucket is short and its consumer walks it anyway.
func (ix *hashIndex) runBucket(key uint64) (lo, hi int) {
	lo = searchHashes(ix.hashes, key)
	for hi = lo; hi < len(ix.hashes) && ix.hashes[hi] == key; hi++ {
	}
	return lo, hi
}

// searchHashes returns the position of the first of the ascending hashes
// h not below key, as slices.BinarySearch does. Hashes are uniform, so
// it starts where key's share of the hash space puts it and gallops out
// until it brackets the answer, then binary-searches the bracket: its
// probes stay near one spot of a long run instead of leaping across it.
func searchHashes(h []uint64, key uint64) int {
	n := len(h)
	if n == 0 {
		return 0
	}
	g, _ := bits.Mul64(key, uint64(n)) // ⌊key·n / 2⁶⁴⌋, below n
	// The answer lies in (lo, hi]: h[lo] < key unless lo is -1, and
	// key <= h[hi] unless hi is n.
	lo, hi := int(g)-1, int(g)
	if h[hi] < key {
		for step := 1; ; step *= 2 {
			lo, hi = hi, min(hi+step, n)
			if hi == n || h[hi] >= key {
				break
			}
		}
	} else {
		for step := 1; lo >= 0 && h[lo] >= key; step *= 2 {
			lo, hi = max(lo-step, -1), lo
		}
	}
	i, _ := slices.BinarySearch(h[lo+1:hi], key)
	return lo + 1 + i
}

// runFind returns the run position of the pair (key, id), dead or live.
func (ix *hashIndex) runFind(key uint64, id RowID) (int, bool) {
	if id > ix.top {
		return 0, false
	}
	lo, hi := ix.runBucket(key)
	i, found := slices.BinarySearchFunc(ix.ids[lo:hi], id, func(e, t RowID) int { return cmp.Compare(e&^deadBit, t) })
	return lo + i, found
}

// bucket returns the ascending live ids under key across both tiers.
// One tier's share comes back as stored (a one entry in buf), so a probe
// allocates nothing; a share of both, or with dead entries, is a fresh
// slice. Read it under db.mu only (see the type's contract).
func (ix *hashIndex) bucket(key uint64, buf *[1]RowID) []RowID {
	d := ix.many[key]
	if id, ok := ix.one[key]; ok {
		buf[0] = id
		d = buf[:]
	}
	lo, hi := ix.runBucket(key)
	r := ix.ids[lo:hi]
	if len(r) == 0 {
		return d
	}
	if len(d) == 0 && (ix.dead == 0 || !slices.ContainsFunc(r, isDead)) {
		return r
	}
	out := slices.DeleteFunc(slices.Concat(r, d), isDead)
	slices.Sort(out)
	return out
}

func isDead(id RowID) bool { return id < 0 }

// merge folds the delta into a new run and drops the dead entries, under
// the db.mu write latch of a checkpoint pass. The maps are replaced, not
// cleared: a cleared map would keep a window's buckets for good.
func (ix *hashIndex) merge() {
	if len(ix.one)+len(ix.many) == 0 && ix.dead == 0 {
		return
	}
	delta := make([]indexEntry, 0, len(ix.one)+2*len(ix.many))
	for h, id := range ix.one {
		delta = append(delta, indexEntry{h, id})
	}
	for h, b := range ix.many {
		for _, id := range b {
			delta = append(delta, indexEntry{h, id})
		}
	}
	ix.fold(delta)
	ix.one, ix.many = make(map[uint64]RowID), make(map[uint64][]RowID)
}

// fold replaces the run with its live entries and the given ones, which
// are not in it, in new, exactly sized columns. Restore calls it once per
// index, on an empty run, with every entry of the page image.
func (ix *hashIndex) fold(add []indexEntry) {
	sortEntries(add)
	n := len(ix.ids) - ix.dead + len(add)
	hashes, ids := make([]uint64, 0, n), make([]RowID, 0, n)
	push := func(e indexEntry) { hashes, ids = append(hashes, e.hash), append(ids, e.id) }
	for _, e := range add {
		ix.top = max(ix.top, e.id)
	}
	j := 0
	for i, id := range ix.ids {
		if isDead(id) {
			continue
		}
		e := indexEntry{ix.hashes[i], id}
		for ; j < len(add) && (add[j].hash < e.hash || add[j].hash == e.hash && add[j].id < id); j++ {
			push(add[j])
		}
		push(e)
	}
	for _, e := range add[j:] {
		push(e)
	}
	ix.hashes, ix.ids, ix.dead = hashes, ids, 0
}

// sortEntries puts es in run order, in place. Hashes are uniform, so one
// pass of swaps files each entry under its top bits, about four entries
// to a bucket, and a comparison sort finishes each bucket.
func sortEntries(es []indexEntry) {
	shift := 66 - bits.Len(uint(len(es)))
	next := make([]int32, 1<<max(64-shift, 0)+1) // next[b]: bucket b's first unfiled slot
	for _, e := range es {
		next[e.hash>>shift+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	end := slices.Clone(next[1:])
	for b := range end {
		for i := next[b]; i < end[b]; i = next[b] {
			t := es[i].hash >> shift
			es[i], es[next[t]] = es[next[t]], es[i]
			next[t]++
		}
	}
	lo := int32(0)
	for _, hi := range end {
		slices.SortFunc(es[lo:hi], indexEntry.compare)
		lo = hi
	}
}

// lookup returns the bucket of the rows whose column cols[i] may hold
// values[i]; cols is any order the index matchesColumns. The caller
// re-checks the values (the bucket is a hash's candidate set).
func (ix *hashIndex) lookup(cols []int, values []Value, buf *[1]RowID) []RowID {
	if ix.exact {
		key, ok := exactKey(values[slices.Index(cols, ix.columns[0])])
		if !ok {
			return nil
		}
		return ix.bucket(key, buf)
	}
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

// verified reports whether a page-only candidate of this index is a
// match without reading its page: the index is exact and no test has
// put its keys on one hash.
func (ix *hashIndex) verified() bool { return ix.exact && !collideKeys }

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
