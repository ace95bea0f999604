package relational

import (
	"fmt"
	"testing"
)

// stampedTxns builds two transactions over the WAL test schema — an
// insert and an update on member 0, a cascading delete on member 2 —
// and assigns sequences the way a commit's stamp would, without
// committing anything.
func stampedTxns(t testing.TB) []*Txn {
	t.Helper()
	var dbs [2]*Database
	for i := range dbs {
		dbs[i] = NewDatabase(walSchema(t))
		mustInsertParent(t, dbs[i], 1, "base")
		mustInsertChild(t, dbs[i], 9, 1, "c")
	}
	dbs[1].member = 2
	a, b := dbs[0].Begin(), dbs[1].Begin()
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

// record is the writer-stage request committing txns, one part each.
func record(txns ...*Txn) *walReq {
	req := &walReq{parts: make([]walPart, len(txns))}
	for i, t := range txns {
		req.parts[i] = walPart{txn: t, body: appendTxnOpsBody(nil, t)}
	}
	return req
}

// TestGroupFrameEncodeAllocs pins the commit path's framing cost: with
// the pooled buffer warmed, framing a record allocates nothing per
// append — the payload is built in place over the reserved header.
func TestGroupFrameEncodeAllocs(t *testing.T) {
	req := record(stampedTxns(t)[0])
	encode := func() {
		bufp := walFramePool.Get().(*[]byte)
		b := encodeRecord((*bufp)[:0], req)
		*bufp = b[:0]
		walFramePool.Put(bufp)
	}
	encode() // warm the pooled buffer past its initial growth
	// Allow a fraction for a GC emptying the pool mid-run.
	if avg := testing.AllocsPerRun(200, encode); avg > 0.5 {
		t.Fatalf("framed record encode allocates %.2f times per append, want ~0", avg)
	}
}

// TestGroupFrameMatchesReference proves the commit path's split
// encoding is byte-identical to the reference encode+frame path the
// recovery scanner was built against, for a one-member log's record (one
// part) and for a wider log's record of two parts: each part a 'G'
// payload of one transaction.
func TestGroupFrameMatchesReference(t *testing.T) {
	live := stampedTxns(t)
	for _, txn := range live {
		want := string(frameRecord(encodeRecordPayload([]walSub{{member: txn.db.member, txns: walTxnsOf(txn)}})))
		if got := string(encodeRecord(nil, record(txn))); got != want {
			t.Fatalf("member %d frame diverges from the reference:\n got %q\nwant %q", txn.db.member, got, want)
		}
	}
	want := string(frameRecord(encodeRecordPayload([]walSub{
		{member: 0, txns: walTxnsOf(live[0])},
		{member: 2, txns: walTxnsOf(live[1])},
	})))
	if got := string(encodeRecord(nil, record(live...))); got != want {
		t.Fatalf("multi-member frame diverges from the reference:\n got %q\nwant %q", got, want)
	}
}

// TestTxnOpsBodyIsExactlySized: a transaction's body is encoded into one
// allocation sized by its length, for the stamped insert,
// update and cascading delete and for a 300-row batch whose body, grown
// by doubling, would take a dozen allocations.
func TestTxnOpsBodyIsExactlySized(t *testing.T) {
	live := stampedTxns(t)
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
