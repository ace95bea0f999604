package relational

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestHashIndexAgainstSetModel drives one index with a seeded mix of the
// operations its callers issue — fresh ids in allocation order,
// duplicate and out-of-order inserts (an update that leaves the key
// unchanged re-inserts the id; recovery walks pages, not ids),
// removes of absent ids and of a bucket's last id — against a map of
// id-sets keyed by hash, and checks after every step that lookup is
// ascending, duplicate-free and equal to the model, and that a key is
// in the one map iff it holds exactly one id. It runs again with every
// key on one hash: a bucket then merges all keys' ids.
func TestHashIndexAgainstSetModel(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				collideAllKeys(t)
			}
			for seed := int64(1); seed <= 5; seed++ {
				checkIndexAgainstSetModel(t, seed)
			}
		})
	}
}

func checkIndexAgainstSetModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ix := newHashIndex("ix", []int{1}, false)
	model := map[uint64]map[RowID]struct{}{}
	next := RowID(1)
	row := func(k int) []Value { return []Value{Null(), Int_(int64(k))} }
	var buf [1]RowID
	for step := 0; step < 4000; step++ {
		k := rng.Intn(6) // few keys: buckets grow to hundreds of ids
		key, _ := ix.keyFor(row(k))
		known := RowID(1 + rng.Int63n(int64(next))) // usually allocated, sometimes not
		switch op := rng.Intn(10); {
		case op < 4: // fresh id, monotonic: the append path
			ix.insert(next, row(k))
			modelAdd(model, key, next)
			next++
		case op < 6: // duplicate (or first) insert of an older id, any order
			ix.insert(known, row(k))
			modelAdd(model, key, known)
		case op < 9: // remove: present, absent, or the bucket's last id
			ix.remove(known, row(k))
			if delete(model[key], known); len(model[key]) == 0 {
				delete(model, key)
			}
		default: // drain one bucket to empty, then past empty
			for _, id := range slices.Clone(ix.bucket(key, &buf)) {
				ix.removeKey(key, id)
				ix.removeKey(key, id)
			}
			delete(model, key)
		}
		if n := len(ix.one) + len(ix.many); n != len(model) {
			t.Fatalf("seed %d step %d: %d buckets, model has %d (an emptied bucket must leave the maps)", seed, step, n, len(model))
		}
		for key, b := range ix.many {
			if _, ok := ix.one[key]; ok || len(b) < 2 {
				t.Fatalf("seed %d step %d: many bucket of %d ids, also in one: %v", seed, step, len(b), ok)
			}
		}
		for k := 0; k < 6; k++ {
			got := ix.lookup([]int{1}, row(k)[1:], &buf)
			key, _ := ix.keyFor(row(k))
			want := make([]RowID, 0, len(model[key]))
			for id := range model[key] {
				want = append(want, id)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d key %d: lookup %v, model %v", seed, step, k, got, want)
			}
		}
	}
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
// does a fresh id under a fresh key of a pre-sized unique index.
func TestIndexKeyEncodingIsStable(t *testing.T) {
	ix := newHashIndex("ix", []int{2, 0}, true)
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
	ux := newHashIndex("ux", []int{0}, true)
	ux.one = make(map[uint64]RowID, runs+1) // as restoreFromPages sizes it
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
				rid, err := db.Insert("child", map[string]Value{
					"id": Int_(1000 + w*rounds + i), "parent_id": Int_(1), "val": String_(fmt.Sprint(w)),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Delete("child", rid); err != nil {
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
			if ix := db.tables["parent"].pkIndex; len(ix.one) != 0 || len(ix.many) != 1 {
				t.Fatalf("parent PK index has %d one and %d many keys; every id should share one bucket", len(ix.one), len(ix.many))
			}
			lookup := func(stage, table, col string, v Value, want ...RowID) {
				t.Helper()
				snap := db.Snapshot()
				defer snap.Close()
				for _, r := range []Reader{db, snap} {
					rows, err := r.LookupRows(table, []string{col}, []Value{v})
					ids, _ := RowIDs(rows, err)
					if err != nil || !slices.Equal(ids, want) {
						t.Fatalf("%s: %T lookup %s.%s = %v: %v, %v; want %v", stage, r, table, col, v, ids, err, want)
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
				if _, err := db.Insert(c.table, c.vals); !errors.Is(err, c.want) {
					t.Fatalf("insert %v into %s: %v, want %v", c.vals, c.table, err, c.want)
				}
			}

			if _, err := db.Delete("parent", p3); err != nil {
				t.Fatal(err)
			}
			db.Reclaim()
			toPages()
			lookup("delete+reclaim", "parent", "id", Int_(3))
			lookup("delete+reclaim", "parent", "id", Int_(1), p1)
			lookup("delete+reclaim", "parent", "name", String_("b"), p2)

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

			if err := db.UpdateRow("parent", p2, map[string]Value{"name": String_("b2")}); err != nil {
				t.Fatal(err)
			}
			db.Reclaim()
			toPages()
			lookup("update+reclaim", "parent", "name", String_("b"))
			lookup("update+reclaim", "parent", "name", String_("b2"), p2)
			lookup("update+reclaim", "parent", "name", String_("a"), p1)
			if _, err := db.Insert("parent", map[string]Value{"id": Int_(3), "name": String_("b")}); err != nil {
				t.Fatalf("a released key and a freed PK must insert again: %v", err)
			}
		})
	}
}
