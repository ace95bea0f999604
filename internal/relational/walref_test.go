package relational

import (
	"encoding/binary"
	"hash/crc32"
)

// The reference WAL record encoder: the straightforward
// walTxn → payload → frame path the recovery scanner was built against.
// The commit path encodes differently (per-transaction bodies before the
// latch, sequences spliced in after, framed in place in a pooled
// buffer); the frame tests and FuzzWALRecordDecode hold it to this one
// byte for byte.

// walTxnsOf views stamped transactions as walTxns. Each transaction
// contributes its undo log — which doubles as its write
// set: the created version (insert/update) carries the after-image, a
// delete needs only the row address — in execution order, so replay
// reproduces intra-transaction sequencing (insert→update→delete of the
// same row) exactly. Each after-image is re-encoded here from the
// version's decoded values, value by value, where the commit path
// copies the version's payload bytes.
func walTxnsOf(live ...*Txn) []walTxn {
	out := make([]walTxn, 0, len(live))
	for _, t := range live {
		wt := walTxn{seq: t.seq, ops: make([]walOp, 0, len(t.log))}
		for i := range t.log {
			en := &t.log[i]
			op := walOp{table: en.table, id: en.id}
			switch en.kind {
			case undoInsert:
				op.kind = walOpInsert
			case undoUpdate:
				op.kind = walOpUpdate
			case undoDelete:
				op.kind = walOpDelete
			}
			if en.kind != undoDelete {
				op.payload = encodeRowPayload(nil, en.v.values(nil))
			}
			wt.ops = append(wt.ops, op)
		}
		out = append(out, wt)
	}
	return out
}

// encodeGroupPayload serializes one 'G' payload of any number of
// transactions: the commit path writes one, a log written before it may
// hold several.
func encodeGroupPayload(txns []walTxn) []byte {
	return appendGroupPayload(make([]byte, 0, 256), txns)
}

// encodeRecordPayload serializes a record: an 'S' tag, then each
// sub-record's member and length-prefixed 'G' payload.
func encodeRecordPayload(subs []walSub) []byte {
	b := binary.AppendUvarint([]byte{walTagMember}, uint64(len(subs)))
	for _, s := range subs {
		g := encodeGroupPayload(s.txns)
		b = binary.AppendUvarint(b, uint64(s.member))
		b = binary.AppendUvarint(b, uint64(len(g)))
		b = append(b, g...)
	}
	return b
}

// appendGroupPayload is encodeGroupPayload into a caller-owned buffer.
func appendGroupPayload(b []byte, txns []walTxn) []byte {
	b = append(b, walTagGroup)
	b = binary.AppendUvarint(b, uint64(len(txns)))
	for _, t := range txns {
		b = binary.AppendUvarint(b, t.seq)
		b = binary.AppendUvarint(b, uint64(len(t.ops)))
		for _, op := range t.ops {
			b = append(b, op.kind)
			b = binary.AppendUvarint(b, uint64(len(op.table)))
			b = append(b, op.table...)
			b = binary.AppendUvarint(b, uint64(op.id))
			if op.kind == walOpDelete {
				continue
			}
			b = append(b, op.payload...)
		}
	}
	return b
}

// frameRecord wraps a payload in the [len][crc][payload] frame.
func frameRecord(payload []byte) []byte {
	out := make([]byte, walFrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[walFrameHeaderSize:], payload)
	return out
}
