package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestHashIndexAgainstSetModel drives one index with a seeded mix of the
// operations its callers issue — fresh ids in allocation order,
// duplicate inserts (an update that leaves the key unchanged re-inserts
// the id), out-of-order insertKey (recovery walks pages, not ids),
// removes of absent ids and of a bucket's last id — against the id-set
// representation the slice buckets replaced, and checks after every
// step that lookup is ascending, duplicate-free and equal to the model.
func TestHashIndexAgainstSetModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := newHashIndex("ix", []int{1}, false)
		model := map[string]map[RowID]struct{}{}
		next := RowID(1)
		row := func(k int) []Value { return []Value{Null(), Int_(int64(k))} }
		for step := 0; step < 4000; step++ {
			k := rng.Intn(6) // few keys: buckets grow to hundreds of ids
			key, _ := ix.keyFor(row(k))
			known := RowID(1 + rng.Int63n(int64(next))) // usually allocated, sometimes not
			switch op := rng.Intn(10); {
			case op < 4: // fresh id, monotonic: the append path
				ix.insert(next, row(k))
				modelAdd(model, key, next)
				next++
			case op < 5: // duplicate (or first) insert of an older id
				ix.insert(known, row(k))
				modelAdd(model, key, known)
			case op < 6: // recovery-style insert, any order
				ix.insertKey(key, known)
				modelAdd(model, key, known)
			case op < 9: // remove: present, absent, or the bucket's last id
				ix.remove(known, row(k))
				if delete(model[key], known); len(model[key]) == 0 {
					delete(model, key)
				}
			default: // drain one bucket to empty, then past empty
				for _, id := range slices.Clone(ix.entries[key]) {
					ix.removeKey(key, id)
					ix.removeKey(key, id)
				}
				delete(model, key)
			}
			if len(ix.entries) != len(model) {
				t.Fatalf("seed %d step %d: %d buckets, model has %d (an emptied bucket must leave the map)", seed, step, len(ix.entries), len(model))
			}
			for k := 0; k < 6; k++ {
				got := ix.lookup([]int{1}, row(k)[1:])
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
}

func modelAdd(model map[string]map[RowID]struct{}, key string, id RowID) {
	if model[key] == nil {
		model[key] = map[RowID]struct{}{}
	}
	model[key][id] = struct{}{}
}

// TestIndexKeyEncodingIsStable: index keys are persisted in the page
// directory (pageRowMeta) and recovery re-inserts them verbatim, so the
// byte form is a file format: each component is the value's EncodeKey
// followed by 0x01, NULL makes the row unindexed, and a probe finds the
// key whatever order it names the columns in.
func TestIndexKeyEncodingIsStable(t *testing.T) {
	ix := newHashIndex("ix", []int{2, 0}, true)
	vals := []Value{String_("a\x01b"), Null(), Float_(3)}
	key, ok := ix.keyFor(vals)
	if want := "\x00#3\x01\x00Sa\x01b\x01"; !ok || key != want {
		t.Fatalf("keyFor = %q, %v; want %q", key, ok, want)
	}
	if want := vals[2].EncodeKey() + "\x01" + vals[0].EncodeKey() + "\x01"; key != want {
		t.Fatalf("keyFor %q is not the EncodeKey composition %q", key, want)
	}
	if _, ok := ix.keyFor([]Value{Null(), Null(), Int_(3)}); ok {
		t.Fatal("a NULL component must leave the row unindexed")
	}
	ix.insert(9, vals)
	for _, probe := range []struct {
		cols []int
		vals []Value
	}{{[]int{2, 0}, []Value{Int_(3), vals[0]}}, {[]int{0, 2}, []Value{vals[0], Float_(3)}}} {
		if got := ix.lookup(probe.cols, probe.vals); !slices.Equal(got, []RowID{9}) {
			t.Fatalf("lookup(%v) = %v, want [9]", probe.cols, got)
		}
	}
	if got := ix.lookup([]int{0, 2}, []Value{Null(), Int_(3)}); got != nil {
		t.Fatalf("NULL probe matched %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { ix.lookup([]int{0, 2}, []Value{vals[0], vals[2]}) }); n != 0 {
		t.Fatalf("lookup allocates %v per probe, want 0", n)
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
