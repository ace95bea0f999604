package relational

import (
	"fmt"
	"testing"
)

// stampedGroup builds a two-transaction group over the WAL test schema
// — an insert, an update, a cascading delete — and assigns sequences
// the way stampGroup would, without committing anything.
func stampedGroup(t testing.TB) []*Txn {
	t.Helper()
	db := NewDatabase(walSchema(t))
	mustInsertParent(t, db, 1, "base")
	mustInsertChild(t, db, 9, 1, "c")
	a, b := db.Begin(), db.Begin()
	id, err := a.Insert("parent", map[string]Value{"id": Int_(7), "name": String_("alloc-check")})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateRow("parent", id, map[string]Value{"name": String_("alloc-check-2")}); err != nil {
		t.Fatal(err)
	}
	ids, err := b.LookupEqual("parent", []string{"id"}, []Value{Int_(1)})
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup parent 1: %v %v", ids, err)
	}
	if _, err := b.Delete("parent", ids[0]); err != nil {
		t.Fatal(err)
	}
	a.seq, b.seq = 42, 43
	t.Cleanup(func() { _ = a.Rollback(); _ = b.Rollback() })
	return []*Txn{a, b}
}

func txnBodies(live []*Txn) [][]byte {
	bodies := make([][]byte, len(live))
	for i, t := range live {
		bodies[i] = appendTxnOpsBody(nil, t)
	}
	return bodies
}

// oneMemberRecord is the writer-stage request a one-member database
// would encode the group under.
func oneMemberRecord(live []*Txn) *walReq {
	req := &walReq{}
	req.one[0] = walPart{db: live[0].db, live: live, bodies: txnBodies(live)}
	req.parts = req.one[:]
	return req
}

// TestGroupFrameEncodeAllocs pins the commit path's framing cost: with
// the pooled buffer warmed, framing a group record allocates nothing
// per append — the payload is built in place over the reserved header.
func TestGroupFrameEncodeAllocs(t *testing.T) {
	req := oneMemberRecord(stampedGroup(t))
	encode := func() {
		bufp := walFramePool.Get().(*[]byte)
		b := encodeRecord((*bufp)[:0], req)
		*bufp = b[:0]
		walFramePool.Put(bufp)
	}
	encode() // warm the pooled buffer past its initial growth
	// Allow a fraction for a GC emptying the pool mid-run.
	if avg := testing.AllocsPerRun(200, encode); avg > 0.5 {
		t.Fatalf("framed group encode allocates %.2f times per append, want ~0", avg)
	}
}

// TestGroupFrameMatchesReference proves the commit path's split
// encoding is byte-identical to the reference encode+frame path the
// recovery scanner was built against, for a one-member log's record (one
// part) and for a wider log's record of two parts.
func TestGroupFrameMatchesReference(t *testing.T) {
	live := stampedGroup(t)
	want := string(frameRecord(encodeRecordPayload([]walSub{{member: 0, txns: walTxnsOf(live)}})))
	if got := string(encodeRecord(nil, oneMemberRecord(live))); got != want {
		t.Fatalf("one-member frame diverges from the reference:\n got %q\nwant %q", got, want)
	}
	bodies := txnBodies(live)
	req := &walReq{parts: []walPart{
		{db: live[0].db, live: live[:1], bodies: bodies[:1]},
		{db: &Database{member: 2}, live: live[1:], bodies: bodies[1:]},
	}}
	want = string(frameRecord(encodeRecordPayload([]walSub{
		{member: 0, txns: walTxnsOf(live[:1])},
		{member: 2, txns: walTxnsOf(live[1:])},
	})))
	if got := string(encodeRecord(nil, req)); got != want {
		t.Fatalf("multi-member frame diverges from the reference:\n got %q\nwant %q", got, want)
	}
}

// TestTxnOpsBodyIsExactlySized: a transaction's body is encoded into one
// allocation sized by its length, for the stamped group's insert,
// update and cascading delete and for a 300-row batch whose body, grown
// by doubling, would take a dozen allocations.
func TestTxnOpsBodyIsExactlySized(t *testing.T) {
	live := stampedGroup(t)
	db := NewDatabase(walSchema(t))
	batch := db.Begin()
	defer batch.Rollback()
	for i := range 300 {
		if _, err := batch.InsertRow("parent", []Value{Int_(int64(100 + i)), String_(fmt.Sprintf("row name %04d of some length", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, txn := range append(live, batch) {
		var body []byte
		allocs := testing.AllocsPerRun(20, func() { body = appendTxnOpsBody(nil, txn) })
		if len(body) != txnOpsBodyLen(txn) || allocs != 1 && !RaceEnabled {
			t.Fatalf("%d ops: body of %d bytes in %v allocations, want %d bytes in 1",
				len(txn.log), len(body), allocs, txnOpsBodyLen(txn))
		}
	}
}
