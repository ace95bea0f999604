package relational

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestHashIndexAgainstSetModel drives one index with a seeded mix of the
// operations its callers issue — fresh ids in allocation order,
// duplicate and out-of-order inserts (an update that leaves the key
// unchanged re-inserts the id; replay commits out of id order), removes
// of absent ids and of a bucket's last id, checkpoint merges, and
// removes, re-inserts and remove-then-re-inserts of pairs the run holds
// — against a map of id-sets keyed by hash (see driveIndexAgainstSetModel
// for what is checked after every step). It runs again with every key on
// one hash: a bucket then merges all keys' ids, and the whole run is one
// hash range.
func TestHashIndexAgainstSetModel(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				collideAllKeys(t)
			}
			for seed := int64(1); seed <= 5; seed++ {
				ops := make([]byte, 3*4000)
				rand.New(rand.NewSource(seed)).Read(ops)
				driveIndexAgainstSetModel(t, ops)
			}
		})
	}
}

// FuzzIndexAgainstSetModel runs the set-model driver on arbitrary op
// strings, with and without every key on one hash.
func FuzzIndexAgainstSetModel(f *testing.F) {
	f.Add(false, []byte{0, 1, 0, 0, 1, 0, 11, 0, 0, 13, 1, 0, 12, 1, 0, 14, 1, 1, 5, 1, 1, 15, 0, 0})
	f.Add(true, []byte{0, 0, 0, 0, 2, 0, 0, 4, 0, 11, 0, 0, 7, 1, 1, 13, 3, 2, 0, 5, 0, 12, 3, 2, 10, 0, 0})
	f.Fuzz(func(t *testing.T, collide bool, ops []byte) {
		if collide {
			collideAllKeys(t)
		}
		driveIndexAgainstSetModel(t, ops[:min(len(ops), 3*2000)])
	})
}

// driveIndexAgainstSetModel applies ops, three bytes a step (operation,
// key, id pick), to a fresh index and a model of id-sets keyed by hash.
// After every step each key's lookup must equal its model set, ascending
// and duplicate-free across run and delta; the tiers must hold the model
// exactly (indexEntries), and a merge must leave an empty delta and an
// exactly sized run with no dead entry.
func driveIndexAgainstSetModel(t *testing.T, ops []byte) {
	t.Helper()
	const keys = 6 // few keys: buckets grow to hundreds of ids
	ix := newHashIndex([]int{1}, false)
	model := map[uint64]map[RowID]struct{}{}
	next := RowID(1)
	row := func(k int) []Value { return []Value{Null(), Int_(int64(k))} }
	remove := func(key uint64, id RowID) {
		if delete(model[key], id); len(model[key]) == 0 {
			delete(model, key)
		}
	}
	// runPair picks an entry, live or dead, of the run's range for key.
	runPair := func(key uint64, pick byte) (RowID, bool) {
		lo, hi := ix.runBucket(key)
		if lo == hi {
			return 0, false
		}
		return ix.ids[lo+int(pick)%(hi-lo)] &^ deadBit, true
	}
	var buf [1]RowID
	for step := 0; step+3 <= len(ops); step += 3 {
		k, pick := int(ops[step+1])%keys, ops[step+2]
		key, _ := ix.keyFor(row(k))
		known := 1 + RowID(pick)%next // usually allocated, sometimes not
		switch op := ops[step] % 16; {
		case op < 5: // fresh id, monotonic: the append path
			ix.insert(next, row(k))
			modelAdd(model, key, next)
			next++
		case op < 7: // duplicate (or first) insert of an older id, any order
			ix.insert(known, row(k))
			modelAdd(model, key, known)
		case op < 10: // remove: present, absent, or the bucket's last id
			ix.removeKey(key, known)
			remove(key, known)
		case op == 10: // drain one bucket to empty, then past empty
			for _, id := range slices.Clone(ix.bucket(key, &buf)) {
				ix.removeKey(key, id)
				ix.removeKey(key, id)
			}
			delete(model, key)
		case op == 11 || op == 15: // a checkpoint pass
			ix.merge()
			if len(ix.one)+len(ix.many) != 0 || ix.dead != 0 || len(ix.ids) != cap(ix.ids) || len(ix.hashes) != len(ix.ids) {
				t.Fatalf("step %d: after a merge %d+%d delta keys, %d dead, run len %d cap %d",
					step, len(ix.one), len(ix.many), ix.dead, len(ix.ids), cap(ix.ids))
			}
		case op == 12: // re-insert a run pair: a no-op when live, a revival when dead
			if id, ok := runPair(key, pick); ok {
				ix.insert(id, row(k))
				modelAdd(model, key, id)
			}
		case op == 13: // remove a run pair, live or already dead
			if id, ok := runPair(key, pick); ok {
				ix.removeKey(key, id)
				remove(key, id)
			}
		default: // remove a run pair and insert it again at once
			if id, ok := runPair(key, pick); ok {
				ix.removeKey(key, id)
				ix.insert(id, row(k))
				modelAdd(model, key, id)
			}
		}
		got := indexEntries(t, ix)
		if len(got) != len(model) {
			t.Fatalf("step %d: %d buckets, model has %d (an emptied bucket must leave the index)", step, len(got), len(model))
		}
		for k := 0; k < keys; k++ {
			key, _ := ix.keyFor(row(k))
			want := slices.Sorted(maps.Keys(model[key]))
			if b := ix.lookup([]int{1}, row(k)[1:], &buf); !slices.Equal(b, want) || !slices.Equal(got[key], want) {
				t.Fatalf("step %d key %d: lookup %v, entries %v, model %v", step, k, b, got[key], want)
			}
		}
	}
}

// indexEntries lists an index's live entries, bucket by bucket, merging
// run and delta, and fails on a broken tier: a run out of (hash, id)
// order or with a miscounted dead mark or an id above top, a many bucket
// under two ids or not ascending, a key in both maps, or a pair in both
// tiers.
func indexEntries(t *testing.T, ix *hashIndex) map[uint64][]RowID {
	t.Helper()
	out := map[uint64][]RowID{}
	dead := 0
	for i, id := range ix.ids {
		if i > 0 && cmp.Or(cmp.Compare(ix.hashes[i-1], ix.hashes[i]), cmp.Compare(ix.ids[i-1]&^deadBit, id&^deadBit)) >= 0 {
			t.Fatalf("run out of order at %d: (%#x, %d) then (%#x, %d)", i, ix.hashes[i-1], ix.ids[i-1], ix.hashes[i], id)
		}
		if id&^deadBit > ix.top {
			t.Fatalf("run id %d above top %d", id&^deadBit, ix.top)
		}
		if id < 0 {
			dead++
			continue
		}
		out[ix.hashes[i]] = append(out[ix.hashes[i]], id)
	}
	if dead != ix.dead {
		t.Fatalf("run holds %d dead entries, counts %d", dead, ix.dead)
	}
	for key, id := range ix.one {
		out[key] = append(out[key], id)
	}
	for key, b := range ix.many {
		if _, ok := ix.one[key]; ok || len(b) < 2 || !slices.IsSorted(b) {
			t.Fatalf("many bucket %v: in one too %v, or under two ids or not ascending", b, ok)
		}
		out[key] = append(out[key], b...)
	}
	for key, b := range out {
		slices.Sort(b)
		if len(slices.Compact(slices.Clone(b))) != len(b) {
			t.Fatalf("bucket %#x holds a pair twice across the tiers: %v", key, b)
		}
	}
	return out
}

func modelAdd(model map[uint64]map[RowID]struct{}, key uint64, id RowID) {
	if model[key] == nil {
		model[key] = map[RowID]struct{}{}
	}
	model[key][id] = struct{}{}
}

// collideAllKeys puts every key of every index on one hash until t ends.
func collideAllKeys(t *testing.T) {
	collideKeys = true
	t.Cleanup(func() { collideKeys = false })
}

// TestIndexKeyEncodingIsStable pins the composite key form: the hash of
// each component's EncodeKey followed by 0x01, NULL makes the row
// unindexed, and a probe finds the key whatever order it names the
// columns in. Keys live only in memory — recovery hashes the page
// payloads again with keyFor — so the form may change, as long as keyFor
// and lookup change together. A probe allocates nothing, and neither
// does a fresh id under a fresh key of a pre-sized unique index; after a
// merge the run is exactly sized, and probing a key it holds (a cold
// row's) allocates nothing either.
func TestIndexKeyEncodingIsStable(t *testing.T) {
	ix := newHashIndex([]int{2, 0}, true)
	vals := []Value{String_("a\x01b"), Null(), Float_(3)}
	key, ok := ix.keyFor(vals)
	enc := vals[2].EncodeKey() + "\x01" + vals[0].EncodeKey() + "\x01"
	if enc != "\x00#3\x01\x00Sa\x01b\x01" {
		t.Fatalf("EncodeKey composition %q", enc)
	}
	if want := maphash.String(keySeed, enc); !ok || key != want {
		t.Fatalf("keyFor = %#x, %v; want the hash of the EncodeKey composition, %#x", key, ok, want)
	}
	if _, ok := ix.keyFor([]Value{Null(), Null(), Int_(3)}); ok {
		t.Fatal("a NULL component must leave the row unindexed")
	}
	ix.insert(9, vals)
	var buf [1]RowID
	for _, probe := range []struct {
		cols []int
		vals []Value
	}{{[]int{2, 0}, []Value{Int_(3), vals[0]}}, {[]int{0, 2}, []Value{vals[0], Float_(3)}}} {
		if got := ix.lookup(probe.cols, probe.vals, &buf); !slices.Equal(got, []RowID{9}) {
			t.Fatalf("lookup(%v) = %v, want [9]", probe.cols, got)
		}
	}
	if got := ix.lookup([]int{0, 2}, []Value{Null(), Int_(3)}, &buf); got != nil {
		t.Fatalf("NULL probe matched %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { ix.lookup([]int{0, 2}, []Value{vals[0], vals[2]}, &buf) }); n != 0 {
		t.Fatalf("lookup allocates %v per probe, want 0", n)
	}

	const runs = 1000
	ux := newHashIndex([]int{0}, true)
	ux.one = make(map[uint64]RowID, runs+1) // pre-sized: map growth is not the point here
	rows := make([][]Value, runs+1)
	for i := range rows {
		rows[i] = []Value{Int_(int64(i))}
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { ux.insert(RowID(next+1), rows[next]); next++ }); n >= 0.05 {
		t.Fatalf("a fresh unique key allocates %v per insert, want < 0.05", n)
	}
	if len(ux.one) != runs+1 || len(ux.many) != 0 {
		t.Fatalf("%d unique keys in one, %d in many; want %d and 0", len(ux.one), len(ux.many), runs+1)
	}
	ux.merge()
	if len(ux.one) != 0 || len(ux.ids) != runs+1 || cap(ux.ids) != runs+1 {
		t.Fatalf("after a merge: %d delta keys, a run of %d (cap %d); want 0 and %d exactly", len(ux.one), len(ux.ids), cap(ux.ids), runs+1)
	}
	if n := testing.AllocsPerRun(100, func() { ux.lookup([]int{0}, rows[7], &buf) }); n != 0 {
		t.Fatalf("a probe of a run key allocates %v, want 0", n)
	}
}

// TestSnapshotLookupEqualVsBucketWriters holds the index contract under
// -race: a bucket is read only under db.mu. Readers probe one hot key
// through pinned snapshots while writers keep appending children to and
// deleting them from that key's bucket (and the reclaimer shrinks it),
// and every result must be ascending and hold the rows nobody deletes.
func TestSnapshotLookupEqualVsBucketWriters(t *testing.T) {
	db := NewDatabase(walSchema(t))
	mustInsertParent(t, db, 1, "hot")
	var stable []RowID
	for i := int64(0); i < 8; i++ {
		stable = append(stable, mustInsertChild(t, db, i, 1, "stays"))
	}
	const writers, rounds = 3, 300
	stop := make(chan struct{})
	var readers, writersWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				ids, err := snap.LookupEqual("child", []string{"parent_id"}, []Value{Int_(1)})
				snap.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.IsSorted(ids) {
					t.Errorf("LookupEqual not ascending: %v", ids)
					return
				}
				for _, id := range stable {
					if _, ok := slices.BinarySearch(ids, id); !ok {
						t.Errorf("LookupEqual lost row %d: %v", id, ids)
						return
					}
				}
			}
		}()
	}
	for w := int64(0); w < writers; w++ {
		writersWG.Add(1)
		go func(w int64) {
			defer writersWG.Done()
			for i := int64(0); i < rounds; i++ {
				tx := db.Begin()
				rid, err := tx.Insert("child", map[string]Value{
					"id": Int_(1000 + w*rounds + i), "parent_id": Int_(1), "val": String_(fmt.Sprint(w)),
				})
				if err == nil {
					err = tx.Commit()
				}
				if err == nil {
					tx = db.Begin()
					_, err = tx.Delete("child", rid)
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
				if i%50 == 0 {
					db.Reclaim()
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	db.Reclaim()
	if ids, err := db.LookupEqual("child", []string{"parent_id"}, []Value{Int_(1)}); err != nil || !slices.Equal(ids, stable) {
		t.Fatalf("after the churn: %v, %v; want %v", ids, err, stable)
	}
}

// TestIndexCollisionsStayExact runs the database's index consumers with
// every key on one hash, so each bucket is a candidate set holding every
// row of its index: lookups (Database and Snapshot), primary-key,
// UNIQUE and foreign-key checks must still answer on values, and the
// entries a delete + reclaim or a rolled-back update drop must not take
// a colliding row's entry with them. It runs in memory and again with
// the rows checkpointed to pages, where the checks fault the values.
func TestIndexCollisionsStayExact(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			collideAllKeys(t)
			var db *Database
			if paged {
				db, _ = openWALDB(t, t.TempDir(), WALOptions{})
			} else {
				db = NewDatabase(walSchema(t))
			}
			toPages := func() {
				t.Helper()
				if !paged {
					return
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				db.Reclaim()
				for name, td := range db.tables {
					if len(td.rows) != 0 {
						t.Fatalf("%s keeps %d versions; want every row page-only", name, len(td.rows))
					}
				}
			}
			p1 := mustInsertParent(t, db, 1, "a")
			p2 := mustInsertParent(t, db, 2, "b") // a distinct PK on the same hash inserts
			p3 := mustInsertParent(t, db, 3, "c")
			c1 := mustInsertChild(t, db, 10, 1, "x")
			c2 := mustInsertChild(t, db, 11, 1, "y")
			mustInsertChild(t, db, 12, 2, "z")
			toPages()
			if got := indexEntries(t, db.tables["parent"].pkIndex); len(got) != 1 || !slices.Equal(got[0], []RowID{p1, p2, p3}) {
				t.Fatalf("parent PK index holds %v across run and delta; every id should sit in the one hash range", got)
			}
			lookup := func(stage, table, col string, v Value, want ...RowID) {
				t.Helper()
				snap := db.Snapshot()
				defer snap.Close()
				for _, r := range []Reader{db, snap} {
					rows, err := r.LookupRows(table, []string{col}, []Value{v})
					ids := rowIDs(rows)
					if err != nil || !slices.Equal(ids, want) {
						t.Fatalf("%s: %T lookup %s.%s = %v: %v, %v; want %v", stage, r, table, col, v, ids, err, want)
					}
					if eq, err := r.LookupEqual(table, []string{col}, []Value{v}); err != nil || !slices.Equal(eq, want) {
						t.Fatalf("%s: %T LookupEqual %s.%s = %v: %v, %v; want %v", stage, r, table, col, v, eq, err, want)
					}
				}
			}
			lookup("insert", "child", "parent_id", Int_(1), c1, c2)
			lookup("insert", "parent", "id", Int_(2), p2)
			lookup("insert", "parent", "name", String_("c"), p3)
			lookup("insert", "parent", "id", Int_(7))

			for _, c := range []struct {
				table string
				vals  map[string]Value
				want  error
			}{
				{"parent", map[string]Value{"id": Int_(2), "name": String_("new")}, ErrPrimaryKey},
				{"parent", map[string]Value{"id": Int_(8), "name": String_("a")}, ErrUnique},
				{"child", map[string]Value{"id": Int_(13), "parent_id": Int_(7)}, ErrForeignKey},
			} {
				tx := db.Begin()
				if _, err := tx.Insert(c.table, c.vals); !errors.Is(err, c.want) {
					t.Fatalf("insert %v into %s: %v, want %v", c.vals, c.table, err, c.want)
				}
				tx.Rollback()
			}

			write(t, db, func(tx *Txn) error {
				_, err := tx.Delete("parent", p3)
				return err
			})
			db.Reclaim()
			for _, stage := range []string{"delete+reclaim", "delete+reclaim+pass"} {
				if stage == "delete+reclaim+pass" {
					toPages()
				}
				lookup(stage, "parent", "id", Int_(3))
				lookup(stage, "parent", "id", Int_(1), p1)
				lookup(stage, "parent", "name", String_("b"), p2)
			}

			txn := db.Begin()
			if err := txn.UpdateRow("parent", p1, map[string]Value{"name": String_("a2")}); err != nil {
				t.Fatal(err)
			}
			if err := txn.UpdateRow("child", c1, map[string]Value{"parent_id": Int_(2)}); err != nil {
				t.Fatal(err)
			}
			if err := txn.Rollback(); err != nil {
				t.Fatal(err)
			}
			lookup("rollback", "parent", "name", String_("a"), p1)
			lookup("rollback", "parent", "name", String_("a2"))
			lookup("rollback", "parent", "name", String_("b"), p2)
			lookup("rollback", "child", "parent_id", Int_(1), c1, c2)

			write(t, db, func(tx *Txn) error {
				return tx.UpdateRow("parent", p2, map[string]Value{"name": String_("b2")})
			})
			db.Reclaim()
			for _, stage := range []string{"update+reclaim", "update+reclaim+pass"} {
				if stage == "update+reclaim+pass" {
					toPages()
				}
				lookup(stage, "parent", "name", String_("b"))
				lookup(stage, "parent", "name", String_("b2"), p2)
				lookup(stage, "parent", "name", String_("a"), p1)
			}
			tx := db.Begin()
			if _, err := tx.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("b")}); err != nil {
				t.Fatalf("a released key and a freed PK must insert again: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rowIDs keeps the ids of a lookup's rows.
func rowIDs(rows []Row) []RowID {
	ids := make([]RowID, len(rows))
	for i := range rows {
		ids[i] = rows[i].ID
	}
	return ids
}

// TestSearchHashesMatchesBinarySearch: the galloping search of a run's
// hashes finds what slices.BinarySearch finds, on uniform runs, runs
// crowded into a corner of the hash space, runs of one repeated hash,
// and keys below, between, on and above their entries.
func TestSearchHashesMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 300 {
		n := rng.Intn(200)
		h := make([]uint64, n)
		for i := range h {
			switch trial % 3 {
			case 0:
				h[i] = rng.Uint64()
			case 1:
				h[i] = rng.Uint64() >> 50 // all near zero
			default:
				h[i] = 1 << 63 // one hash
			}
		}
		slices.Sort(h)
		keys := []uint64{0, 1, 1 << 63, ^uint64(0), rng.Uint64(), rng.Uint64() >> 50}
		for _, x := range h {
			keys = append(keys, x, x-1, x+1)
		}
		for _, k := range keys {
			want, _ := slices.BinarySearch(h, k)
			if got := searchHashes(h, k); got != want {
				t.Fatalf("trial %d, %d hashes, key %#x: got %d, want %d", trial, n, k, got, want)
			}
		}
	}
}
