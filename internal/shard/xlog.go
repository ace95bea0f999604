package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/relational"
)

// xlog is the cross-shard coordinator log. One record per cross-shard
// commit holds the transaction id and, for every participating shard,
// that shard's framed redo record byte for byte as its own log holds it.
// The record's append+fsync is the commit point and the only flush the
// commit waits for; its single CRC makes the commit atomic (a torn record
// is no record). At open every shard gets the committed xids and its own
// frames in log order; relational.Coordinator says what its recovery does
// with them.
//
// Files: <dir>/xlog, then <dir>/xlog-<n>, ascending; the last one is
// appended to. Past xlogSealBytes the next one is started, and an earlier
// file is deleted once every shard's durable checkpoint horizon has
// passed the highest sequence the file holds for that shard: recovery
// skips records at or below the horizon before it consults the xid set.
//
// Records are framed like WAL records ([len][crc32][payload]). A payload
// starting with a zero byte is
//
//	0x00, uvarint xid, uvarint parts, parts × (uvarint shard, uvarint seq, uvarint len, frame)
//
// and any other is the bare uvarint xid (never zero) of the format in
// which shard logs flushed at prepare: it commits the xid, carries no
// frames, and its file is never deleted — its sequences are unknown.
//
// One record, one fsync: concurrent commits take turns. (Their shard
// latches, held through the flush, already serialise all but commits on
// disjoint shard sets; letting those share a flush is ROADMAP item 5(b).)
type xlog struct {
	dir     string
	horizon func(shard int) uint64 // a shard's durable checkpoint sequence

	mu     sync.Mutex  // one append (or close) at a time
	f      *os.File    // the last file; nil once closed
	failed error       // set when the file can no longer be trusted
	index  uint64      // the last file's number (0 is plain "xlog")
	size   int64       // its length
	maxSeq []uint64    // per shard: the highest sequence it holds
	sealed []sealedLog // earlier files, oldest first
	buf    []byte      // record-encoding scratch

	fsyncs atomic.Int64 // Sync calls that made records durable
	bytes  atomic.Int64 // record bytes written
}

const (
	xlogName       = "xlog"
	xlogHeaderSize = 8
	// xlogSealBytes is the size past which a new file is started (~10,000
	// two-shard commits); recovery reads into memory this times the files
	// no checkpoint has yet let go.
	xlogSealBytes = 1 << 20
)

// sealedLog is a file no longer appended to, awaiting retirement.
type sealedLog struct {
	path   string
	maxSeq []uint64
}

// xlogPart is what a record says of one participant.
type xlogPart struct {
	shard int
	seq   uint64 // the last sequence in frame
	frame []byte // when decoded, aliases the payload
}

// appendXlogRecord appends one framed coordinator record to buf.
func appendXlogRecord(buf []byte, xid uint64, parts []prepared) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, xlogHeaderSize+1)...) // header, format byte 0
	buf = binary.AppendUvarint(buf, xid)
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(p.shard))
		buf = binary.AppendUvarint(buf, p.seq)
		buf = binary.AppendUvarint(buf, uint64(len(p.frame)))
		buf = append(buf, p.frame...)
	}
	payload := buf[start+xlogHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeXlogRecord parses one record payload, appending its participants
// to parts. It is total — arbitrary bytes return ok false, never panic,
// and nothing is sized by a length they merely claim (FuzzXlogRecordDecode).
func decodeXlogRecord(payload []byte, parts []xlogPart) (xid uint64, _ []xlogPart, ok bool) {
	if len(payload) == 0 || payload[0] != 0 {
		xid, n := binary.Uvarint(payload)
		return xid, parts, n == len(payload) && xid != 0
	}
	b := payload[1:]
	ok = true
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return v
	}
	xid = next()
	for count := next(); ok && count > 0; count-- {
		shard, seq, flen := next(), next(), next()
		if !ok || shard > math.MaxInt32 || flen > uint64(len(b)) {
			return 0, parts, false
		}
		parts = append(parts, xlogPart{shard: int(shard), seq: seq, frame: b[:flen:flen]})
		b = b[flen:]
	}
	return xid, parts, ok && xid != 0 && len(b) == 0
}

// scanXlog calls visit for every intact record of a file (parts is
// reused between calls) and returns where the valid prefix ends.
func scanXlog(data []byte, visit func(xid uint64, parts []xlogPart)) int64 {
	var parts []xlogPart
	return relational.ScanFrames(data, func(payload []byte) bool {
		xid, ps, ok := decodeXlogRecord(payload, parts[:0])
		if ok {
			visit(xid, ps)
		}
		parts = ps
		return ok
	})
}

// shardRecovery is what the coordinator log held at open for one shard
// (relational.Coordinator); New drops it once the shards are open.
type shardRecovery struct {
	committed map[uint64]bool // shared by all shards
	frames    []xlogPart      // in log order
}

func (r *shardRecovery) Committed(xid uint64) bool { return r.committed[xid] }

func (r *shardRecovery) FramesAfter(seq uint64) []byte {
	var out []byte
	for _, p := range r.frames {
		if p.seq > seq {
			out = append(out, p.frame...)
		}
	}
	return out
}

func (x *xlog) path(index uint64) string {
	if index == 0 {
		return filepath.Join(x.dir, xlogName)
	}
	return filepath.Join(x.dir, fmt.Sprintf("%s-%010d", xlogName, index))
}

// openXlog reads every coordinator file under dir, oldest first, and
// opens the last for appending, cut back (and the cut fsynced) to its
// intact prefix: only there can a crash mid-append leave a torn tail.
// It returns each shard's recovery view and the highest xid.
func openXlog(dir string, n int, horizon func(shard int) uint64) (*xlog, []shardRecovery, uint64, error) {
	x := &xlog{dir: dir, horizon: horizon, maxSeq: make([]uint64, n)}
	rec, committed, maxXid := make([]shardRecovery, n), make(map[uint64]bool), uint64(0)
	for i := range rec {
		rec[i].committed = committed
	}
	paths, err := filepath.Glob(x.path(0) + "*") // sorted: "xlog", then zero-padded numbers
	if err != nil {
		return nil, nil, 0, err
	}
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, 0, err
		}
		x.maxSeq = make([]uint64, n)
		x.size = scanXlog(data, func(xid uint64, parts []xlogPart) {
			committed[xid] = true
			maxXid = max(maxXid, xid)
			if len(parts) == 0 { // bare xid: keep the file
				x.maxSeq[0] = math.MaxUint64
			}
			for _, p := range parts {
				if p.shard >= n {
					err = fmt.Errorf("%s: xid %d names shard %d of %d", path, xid, p.shard, n)
					return
				}
				rec[p.shard].frames = append(rec[p.shard].frames, p)
				x.maxSeq[p.shard] = max(x.maxSeq[p.shard], p.seq)
			}
		})
		if i < len(paths)-1 {
			x.sealed = append(x.sealed, sealedLog{path: path, maxSeq: x.maxSeq})
			if err == nil && x.size < int64(len(data)) {
				err = fmt.Errorf("%s: corrupt record at offset %d", path, x.size)
			}
		}
		if err != nil {
			return nil, nil, 0, err
		}
	}
	last := x.path(0)
	if len(paths) > 0 {
		last = paths[len(paths)-1]
		fmt.Sscanf(filepath.Base(last), xlogName+"-%d", &x.index) // stays 0 for "xlog"
	}
	if x.f, err = os.OpenFile(last, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, nil, 0, err
	}
	if err = x.f.Truncate(x.size); err == nil {
		err = x.f.Sync()
	}
	if err != nil {
		x.f.Close()
		return nil, nil, 0, fmt.Errorf("%s: %w", last, err)
	}
	return x, rec, maxXid, nil
}

// append writes one commit's record at the end of the last file and
// fsyncs it — returning nil means the decision is on disk — then starts
// the next file if this one has grown past xlogSealBytes. On failure the
// bytes are cut back off — an aborted transaction's record must not
// become durable behind a later commit's fsync — and if even that fails
// the log refuses further appends.
func (x *xlog) append(xid uint64, parts []prepared) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.f == nil {
		return fmt.Errorf("shard: coordinator log is closed")
	}
	err := x.failed
	if err == nil {
		err = relational.Failpoint(relational.FpXlogFlushBefore)
	}
	if err != nil {
		return err
	}
	x.buf = appendXlogRecord(x.buf[:0], xid, parts)
	if _, err = x.f.WriteAt(x.buf, x.size); err == nil {
		if err = x.f.Sync(); err == nil {
			err = relational.Failpoint(relational.FpXlogFlushAfter)
		}
	}
	if err != nil {
		if terr := x.f.Truncate(x.size); terr != nil {
			x.failed = fmt.Errorf("shard: coordinator log: cannot cut a failed append back off: %v (after %v)", terr, err)
		}
		return err
	}
	x.size += int64(len(x.buf))
	x.fsyncs.Add(1)
	x.bytes.Add(int64(len(x.buf)))
	for _, p := range parts {
		x.maxSeq[p.shard] = max(x.maxSeq[p.shard], p.seq)
	}
	if x.size >= xlogSealBytes {
		if err := x.seal(); err != nil {
			x.failed = fmt.Errorf("shard: coordinator log: starting the next file: %v", err)
		}
	}
	return nil
}

// seal starts the next file (the current one is flushed) and retires
// what the shards' checkpoints have let go. The caller holds mu.
func (x *xlog) seal() error {
	f, err := os.OpenFile(x.path(x.index+1), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		if err = relational.SyncDir(x.dir); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return err
	}
	x.sealed = append(x.sealed, sealedLog{path: x.path(x.index), maxSeq: x.maxSeq})
	x.index, x.size, x.maxSeq = x.index+1, 0, make([]uint64, len(x.maxSeq))
	old := x.f
	x.f = f
	x.retire()
	return old.Close()
}

// retire deletes every sealed file whose sequences all lie at or below
// their shards' durable checkpoint horizons — best effort: what cannot be
// deleted is tried again at the next seal or open. The caller holds mu.
func (x *xlog) retire() {
	kept := x.sealed[:0]
	for _, s := range x.sealed {
		covered := true
		for shard, seq := range s.maxSeq {
			covered = covered && seq <= x.horizon(shard)
		}
		if !covered || os.Remove(s.path) != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) < len(x.sealed) {
		_ = relational.SyncDir(x.dir) // a file that reappears is retired again
	}
	x.sealed = kept
}

func (x *xlog) close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.f == nil {
		return nil
	}
	err := x.f.Close()
	x.f = nil
	return err
}
