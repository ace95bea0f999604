package relational

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// The write-ahead log makes commits durable: commit groups are encoded
// into length+CRC32-framed records, appended to an append-only segment
// file by the writer stage (walpipeline.go) and fsynced ONCE per drained
// batch — the one place commits share a flush — before any of the
// batch's version stamps become visible. A process that dies at any
// instant — mid-write, between write and fsync, during rotation or
// checkpointing — recovers at Open to exactly the set of transactions
// whose commit record was durable: no lost acknowledged commits, no
// torn partial applies, torn tails discarded.
//
// On-disk layout of a WAL directory:
//
//	wal-0000000001.seg        sealed segment (immutable once rotated away)
//	wal-0000000002.seg        active segment (append-only)
//	pages.heap                slotted 4KiB pages: the checkpoint base image
//	pagedir-0000000001.log    page-directory log (installs, frees, chain)
//	recycle-0000000001.rseg   retired segment awaiting reuse as a future
//	                          active segment (pre-sized, contents ignored)
//
// Every record is framed as [len uint32][crc32 uint32][payload]; the
// CRC covers the payload. Recovery reads segments in index order and
// stops at the first frame that is short, oversized or fails its CRC —
// everything before it is the committed prefix, everything at and after
// it never had a durable commit acknowledged (an all-zero tail left by
// segment preallocation is trimmed without being reported as torn).
//
// The checkpoint base image lives in internal/pagestore: a heap file of
// slotted copy-on-write pages plus a directory log. A checkpoint pass
// packs only the rows dirtied since the previous pass (plus the clean
// survivors sharing their pages) into fresh pages and appends one
// directory record, keeping the pause O(dirty-pages), not O(database);
// the directory log folds into a compact base asynchronously inside the
// store. Segments whose records all precede the last checkpoint are
// recycled or deleted, and recovery maps the page directory (pages
// fault in lazily through the buffer pool on first read) and then
// replays only records with newer sequences.

// walSegmentPrefix/walSegmentSuffix name segment files; the embedded
// index is monotonic and never reused.
const (
	walSegmentPrefix   = "wal-"
	walSegmentSuffix   = ".seg"
	walRecyclePrefix   = "recycle-"
	walRecycleSuffix   = ".rseg"
	walFrameHeaderSize = 8
	// walRecycleKeep caps the recycled-segment free list; surplus sealed
	// segments are deleted as before.
	walRecycleKeep = 4
	// walMaxRecordSize bounds a single record frame; anything larger in
	// a file is treated as corruption (stops recovery at that point).
	walMaxRecordSize = 1 << 28
)

// Record payload type tags.
const (
	walTagGroup    = 'G' // one commit group: N transactions' redo
	walTagXidGroup = 'X' // commit group tagged with a cross-shard xid
)

// Row-operation tags inside a group record.
const (
	walOpInsert = 'I'
	walOpUpdate = 'U'
	walOpDelete = 'D'
)

// WALOptions tunes the write-ahead log. The zero value is production
// defaults; tests shrink SegmentBytes to force rotation and set
// CheckpointEverySegments to exercise checkpoint truncation under load.
type WALOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 4 MiB). Records are never split across segments.
	SegmentBytes int64
	// CheckpointEverySegments, when > 0, piggybacks a checkpoint on the
	// first commit after that many segments have been sealed since the
	// last checkpoint. Zero leaves checkpointing to explicit Checkpoint
	// calls and the StartCheckpointer ticker.
	CheckpointEverySegments int
	// Coordinator is the cross-shard coordinator log as this shard's
	// recovery sees it, set by the shard group that owns it; without one,
	// xid-tagged records replay unconditionally.
	Coordinator Coordinator
	// CheckpointDeltaLimit bounds the page-directory log chain: each
	// incremental checkpoint appends one directory record (dirty pages
	// only) until this many accumulate, then the store folds the chain
	// into a fresh compact base asynchronously. Zero means the default
	// (8).
	CheckpointDeltaLimit int
	// PageCacheBytes caps the buffer pool holding decoded checkpoint
	// pages: cold committed rows drop their in-memory values and fault
	// back in through this pool, so the dataset may exceed RAM. Zero
	// means the default (256 MiB).
	PageCacheBytes int64
	// PreallocateSegments extends each new active segment to
	// SegmentBytes at creation, so appends never grow the file and the
	// per-append metadata fsync cost disappears. Recovery treats a
	// trailing run of zero bytes as preallocation slack, not a torn
	// record.
	PreallocateSegments bool
}

// Coordinator is what one shard's recovery asks the cross-shard
// coordinator log, whose record — the only thing a cross-shard commit
// flushes — carries the xid-tagged record each shard log merely appended.
type Coordinator interface {
	// Committed reports whether the log holds the xid: a scanned
	// xid-tagged record replays only then (xid 0 always replays).
	Committed(xid uint64) bool
	// FramesAfter returns, concatenated in log order (this shard's
	// sequence order), the framed group records the log holds for this
	// shard whose last sequence exceeds seq, for recoverFrom to replay.
	FramesAfter(seq uint64) []byte
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointDeltaLimit <= 0 {
		o.CheckpointDeltaLimit = 8
	}
	if o.PageCacheBytes <= 0 {
		o.PageCacheBytes = 256 << 20
	}
	return o
}

// RecoveryInfo reports what Open's replay found and restored.
type RecoveryInfo struct {
	// CheckpointSeq is the commit sequence of the recovered page
	// directory (zero when the directory had no checkpoint state).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointRows counts rows restored from the page directory as
	// lazy stubs; their pages fault in on first read, not at recovery.
	CheckpointRows int `json:"checkpoint_rows"`
	// CheckpointDeltas counts page-directory records applied to rebuild
	// the checkpoint state.
	CheckpointDeltas int `json:"checkpoint_deltas,omitempty"`
	// ReplayedTxns counts committed transactions replayed from segment
	// records with sequences past the checkpoint.
	ReplayedTxns int64 `json:"replayed_txns"`
	// ReplayedOps counts row operations those transactions reapplied.
	ReplayedOps int64 `json:"replayed_ops"`
	// Segments counts segment files scanned.
	Segments int `json:"segments"`
	// TornTail is true when the last segment ended in an incomplete or
	// corrupt frame that recovery discarded.
	TornTail bool `json:"torn_tail"`
	// TruncatedBytes is how many trailing bytes the torn tail held.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// CommitSeq is the commit sequence after recovery.
	CommitSeq uint64 `json:"commit_seq"`
	// MaxXid is the largest cross-shard transaction id seen in any
	// scanned group record, replayed or filtered; a shard-group
	// coordinator resumes xid allocation above it.
	MaxXid uint64 `json:"max_xid,omitempty"`
	// FilteredTxns counts xid-tagged transactions the Coordinator does
	// not hold (prepared but never committed cross-shard), discarded.
	FilteredTxns int64 `json:"filtered_txns,omitempty"`
	// RepairedTxns counts, within ReplayedTxns, committed cross-shard
	// transactions replayed from the Coordinator's copy, their own lost.
	RepairedTxns int64 `json:"repaired_txns,omitempty"`
	// RecoveryNanos is the wall time OpenWAL spent recovering (directory
	// mapping plus segment replay, or the initial checkpoint when the
	// directory was fresh). Shard groups open WALs in parallel, so the
	// group's recovery time is the max of these, not the sum.
	RecoveryNanos int64 `json:"recovery_nanos,omitempty"`
}

// ErrWALClosed reports an append against a closed WAL (post-shutdown).
var ErrWALClosed = errors.New("relational: write-ahead log is closed")

// sealedSegment is a rotated-away segment awaiting checkpoint deletion.
type sealedSegment struct {
	index uint64
	path  string
}

// WAL is the durable log attached to a Database by OpenWAL. Group
// records are enqueued under the database's commit latch and appended
// by the single writer goroutine; the small internal mutex only guards
// the sealed-segment list, which checkpoints mutate outside that latch.
type WAL struct {
	dir  string
	opts WALOptions

	f        *os.File // active segment; owned by the writer stage
	segIndex uint64   // active segment's index
	segBytes int64    // bytes appended to the active segment
	closed   bool     // set by Close; guarded by commitMu like f

	mu     sync.Mutex
	sealed []sealedSegment
	free   []string // recycled segment files awaiting reuse (guarded by mu)

	// pipe is the WAL writer stage's queue: commit groups are enqueued
	// under commitMu (so queue order IS sequence order) and the writer
	// goroutine writes, fsyncs and publishes them strictly in that
	// order.
	pipe       chan *walReq
	writerDone chan struct{}
	pipeDepth  atomic.Int64

	ckptMu        sync.Mutex // serializes Checkpoint runs
	checkpointSeq atomic.Uint64

	// pager owns the paged checkpoint store and its buffer pool; set
	// once by OpenWAL before the database serves traffic.
	pager *pager

	appends      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	rotations    atomic.Int64
	checkpoints  atomic.Int64
	sealedSinceC atomic.Int64 // sealed segments since the last checkpoint
	recycled     atomic.Int64 // segments reused from the free list
	chainLen     atomic.Int64 // published delta-chain length gauge

	// fsyncHist records each commit-path fsync's duration; lastFsyncNs
	// holds the most recent one so a traced apply can split its commit
	// wait into publish time vs fsync time. ckptPauseHist
	// records each checkpoint pass's full duration — the stall the
	// caller that triggered it (usually a commit piggybacking
	// maybeCheckpoint) observes.
	fsyncHist       *obs.Histogram
	lastFsyncNs     atomic.Int64
	ckptPauseHist   *obs.Histogram
	lastCkptPauseNs atomic.Int64
}

func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%010d%s", walSegmentPrefix, index, walSegmentSuffix))
}

func parseSegmentIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walSegmentPrefix) || !strings.HasSuffix(name, walSegmentSuffix) {
		return 0, false
	}
	mid := name[len(walSegmentPrefix) : len(name)-len(walSegmentSuffix)]
	var idx uint64
	for _, r := range mid {
		if r < '0' || r > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(r-'0')
	}
	return idx, len(mid) > 0
}

// SyncDir fsyncs a directory so entry creations/renames/removals are
// durable, the half of crash safety rename alone does not give.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- value / record encoding ----------------------------------------

// Value wire kinds. Unlike EncodeKey this encoding is lossless and
// self-delimiting: floats keep their bits, strings their length.
const (
	walValNull  = 0
	walValStr   = 1
	walValInt   = 2
	walValFloat = 3
)

func appendWALValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, walValNull)
	case KindString:
		b = append(b, walValStr)
		b = binary.AppendUvarint(b, uint64(len(v.Str)))
		return append(b, v.Str...)
	case KindInt:
		b = append(b, walValInt)
		return binary.AppendVarint(b, v.Int)
	case KindFloat:
		b = append(b, walValFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	default:
		return append(b, walValNull)
	}
}

var errWALCorrupt = errors.New("relational: corrupt WAL record")

func decodeWALValue(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return Value{}, nil, errWALCorrupt
	}
	kind, b := b[0], b[1:]
	switch kind {
	case walValNull:
		return Null(), b, nil
	case walValStr:
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return Value{}, nil, errWALCorrupt
		}
		b = b[sz:]
		return String_(string(b[:n])), b[n:], nil
	case walValInt:
		i, sz := binary.Varint(b)
		if sz <= 0 {
			return Value{}, nil, errWALCorrupt
		}
		return Int_(i), b[sz:], nil
	case walValFloat:
		if len(b) < 8 {
			return Value{}, nil, errWALCorrupt
		}
		return Float_(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	default:
		return Value{}, nil, errWALCorrupt
	}
}

// walOp is one decoded row operation of a replayed transaction.
type walOp struct {
	kind   byte
	table  string
	id     RowID
	values []Value // nil for deletes
}

// walTxn is one decoded committed transaction. xid is non-zero only for
// groups prepared under a cross-shard two-phase commit.
type walTxn struct {
	seq uint64
	xid uint64
	ops []walOp
}

// appendTxnOpsBody encodes one transaction's operations — everything in
// the per-txn wire format EXCEPT the leading commit sequence, which is
// not assigned yet. The undo log doubles as the write set: a created
// version (insert/update) carries the after-image, a delete needs only
// the row address, and execution order is kept so replay reproduces
// intra-transaction sequencing (insert→update→delete of the same row)
// exactly. stampGroup calls this BEFORE taking the commit latch so the
// latch covers only validation and stamping; assembleGroupPayload
// splices the sequences in afterwards.
func appendTxnOpsBody(b []byte, t *Txn) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.log)))
	for i := range t.log {
		en := &t.log[i]
		switch en.kind {
		case undoInsert:
			b = append(b, walOpInsert)
		case undoUpdate:
			b = append(b, walOpUpdate)
		case undoDelete:
			b = append(b, walOpDelete)
		}
		b = binary.AppendUvarint(b, uint64(len(en.table)))
		b = append(b, en.table...)
		b = binary.AppendUvarint(b, uint64(en.id))
		if en.kind == undoDelete {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(en.v.row.Values)))
		for _, v := range en.v.row.Values {
			b = appendWALValue(b, v)
		}
	}
	return b
}

// assembleGroupPayload builds a commit-group record from pre-encoded
// per-txn bodies plus the sequences stamped under the latch, appended
// into a caller-owned (pooled) buffer. xid 0 writes the original 'G'
// format; a cross-shard xid switches the tag to 'X' and prefixes the
// xid, so logs written before sharding existed still decode. The output
// is byte-identical to the tests' reference encoder on the same group.
func assembleGroupPayload(out []byte, xid uint64, live []*Txn, bodies [][]byte) []byte {
	if xid == 0 {
		out = append(out, walTagGroup)
	} else {
		out = append(out, walTagXidGroup)
		out = binary.AppendUvarint(out, xid)
	}
	out = binary.AppendUvarint(out, uint64(len(live)))
	for i, t := range live {
		out = binary.AppendUvarint(out, t.seq)
		out = append(out, bodies[i]...)
	}
	return out
}

// decodeGroupPayload parses one group record payload. It is total:
// arbitrary byte soup returns errWALCorrupt, never panics — the fuzzer
// holds it to that.
func decodeGroupPayload(b []byte) ([]walTxn, error) {
	if len(b) < 1 || (b[0] != walTagGroup && b[0] != walTagXidGroup) {
		return nil, errWALCorrupt
	}
	tag := b[0]
	b = b[1:]
	xid := uint64(0)
	if tag == walTagXidGroup {
		var sz int
		xid, sz = binary.Uvarint(b)
		if sz <= 0 || xid == 0 {
			return nil, errWALCorrupt
		}
		b = b[sz:]
	}
	ntxns, sz := binary.Uvarint(b)
	if sz <= 0 || ntxns > uint64(len(b)) {
		return nil, errWALCorrupt
	}
	b = b[sz:]
	txns := make([]walTxn, 0, ntxns)
	for range ntxns {
		seq, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, errWALCorrupt
		}
		b = b[sz:]
		nops, sz := binary.Uvarint(b)
		if sz <= 0 || nops > uint64(len(b)) {
			return nil, errWALCorrupt
		}
		b = b[sz:]
		t := walTxn{seq: seq, xid: xid, ops: make([]walOp, 0, nops)}
		for range nops {
			if len(b) < 1 {
				return nil, errWALCorrupt
			}
			kind := b[0]
			if kind != walOpInsert && kind != walOpUpdate && kind != walOpDelete {
				return nil, errWALCorrupt
			}
			b = b[1:]
			tlen, sz := binary.Uvarint(b)
			if sz <= 0 || tlen > uint64(len(b)-sz) {
				return nil, errWALCorrupt
			}
			b = b[sz:]
			table := string(b[:tlen])
			b = b[tlen:]
			id, sz := binary.Uvarint(b)
			if sz <= 0 {
				return nil, errWALCorrupt
			}
			b = b[sz:]
			op := walOp{kind: kind, table: table, id: RowID(id)}
			if kind != walOpDelete {
				ncols, sz := binary.Uvarint(b)
				if sz <= 0 || ncols > uint64(len(b)) {
					return nil, errWALCorrupt
				}
				b = b[sz:]
				op.values = make([]Value, 0, ncols)
				for range ncols {
					var v Value
					var err error
					v, b, err = decodeWALValue(b)
					if err != nil {
						return nil, err
					}
					op.values = append(op.values, v)
				}
			}
			t.ops = append(t.ops, op)
		}
		txns = append(txns, t)
	}
	if len(b) != 0 {
		return nil, errWALCorrupt
	}
	return txns, nil
}

// walFramePool recycles the commit path's frame-encode buffers: one
// Get/Put per group append instead of two fresh allocations (payload +
// frame copy) per fsynced group. Buffers grow to the largest group seen
// and stay that size.
var walFramePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// beginFrame reserves the frame header at the start of an empty buffer;
// finishFrame backfills it once the payload has been appended in place.
func beginFrame(buf []byte) []byte {
	var hdr [walFrameHeaderSize]byte
	return append(buf, hdr[:]...)
}

func finishFrame(frame []byte) {
	payload := frame[walFrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// frameGroup encodes one framed group record into buf (which must be
// empty): reserved header, payload assembled in place, header
// backfilled — one buffer, no copies.
func frameGroup(buf []byte, xid uint64, live []*Txn, bodies [][]byte) []byte {
	frame := assembleGroupPayload(beginFrame(buf), xid, live, bodies)
	finishFrame(frame)
	return frame
}

// ScanFrames walks [len uint32][crc32 uint32][payload] frames (segment
// files and the shard group's coordinator log), calling visit with each
// payload whose length and CRC hold; it returns the accepted prefix length.
func ScanFrames(data []byte, visit func(payload []byte) bool) (valid int64) {
	for {
		rest := data[valid:]
		if len(rest) < walFrameHeaderSize {
			return valid
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > walMaxRecordSize || n > int64(len(rest)-walFrameHeaderSize) {
			return valid
		}
		payload := rest[walFrameHeaderSize : walFrameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) || !visit(payload) {
			return valid
		}
		valid += walFrameHeaderSize + n
	}
}

// scanFrames returns the decoded group records of a segment's intact
// frames plus the offset where the valid prefix ends. Any malformed frame
// — short header, oversized length, short payload, CRC mismatch,
// undecodable payload — ends the scan: write-ahead discipline means
// nothing after the first bad frame was ever acknowledged as committed.
func scanFrames(data []byte) (txns []walTxn, validOffset int64) {
	validOffset = ScanFrames(data, func(payload []byte) bool {
		decoded, err := decodeGroupPayload(payload)
		txns = append(txns, decoded...)
		return err == nil
	})
	return txns, validOffset
}

// ---- append path ------------------------------------------------------

// truncateActive drops the bytes a failed append wrote. Best-effort: if
// the truncate itself fails the next recovery's CRC scan still stops at
// the torn frame.
func (w *WAL) truncateActive(wrote int) {
	if wrote == 0 {
		return
	}
	_ = w.f.Truncate(w.segBytes)
	_, _ = w.f.Seek(w.segBytes, 0)
}

// rotate seals the active segment and opens the next. Called by the
// writer stage, or by Checkpoint while the writer is parked at its
// barrier.
func (w *WAL) rotate() error {
	if err := evalFailpoint(FpWALRotateSeal); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if err := w.f.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.sealed = append(w.sealed, sealedSegment{index: w.segIndex, path: segmentPath(w.dir, w.segIndex)})
	w.mu.Unlock()
	w.sealedSinceC.Add(1)
	if err := w.openSegment(w.segIndex + 1); err != nil {
		return err
	}
	w.rotations.Add(1)
	return evalFailpoint(FpWALRotateOpen)
}

// openSegment makes the segment file with the given index the active
// one: reuse a recycled file when the free list has one, otherwise
// create fresh (preallocated to SegmentBytes when the option is on) and
// make the directory entry durable.
func (w *WAL) openSegment(index uint64) error {
	path := segmentPath(w.dir, index)
	if f, ok, err := w.takeRecycled(path); err != nil {
		return err
	} else if ok {
		w.recycled.Add(1)
		w.f = f
		w.segIndex = index
		w.segBytes = 0
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if w.opts.PreallocateSegments {
		if err := f.Truncate(w.opts.SegmentBytes); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		w.fsyncs.Add(1)
	}
	if err := SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.fsyncs.Add(1)
	w.f = f
	w.segIndex = index
	w.segBytes = 0
	return nil
}

// takeRecycled reuses a free-list file as the new active segment. The
// old contents are truncated away and the truncate fsynced BEFORE the
// rename, so a crash can never leave stale committed-looking frames
// under a live segment name. Pre-rename failures fall back to a fresh
// create (the reserved file is simply dropped from the list); failures
// after the rename propagate, since the segment name now exists.
func (w *WAL) takeRecycled(path string) (*os.File, bool, error) {
	w.mu.Lock()
	if len(w.free) == 0 {
		w.mu.Unlock()
		return nil, false, nil
	}
	rpath := w.free[0]
	w.free = w.free[1:]
	w.mu.Unlock()
	f, err := os.OpenFile(rpath, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false, nil
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, false, nil
	}
	if w.opts.PreallocateSegments {
		if err := f.Truncate(w.opts.SegmentBytes); err != nil {
			f.Close()
			return nil, false, nil
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, false, nil
	}
	w.fsyncs.Add(1)
	if err := os.Rename(rpath, path); err != nil {
		f.Close()
		return nil, false, err
	}
	if err := SyncDir(w.dir); err != nil {
		f.Close()
		return nil, false, err
	}
	w.fsyncs.Add(1)
	return f, true, nil
}

// retireSegment disposes of a checkpoint-superseded sealed segment:
// onto the bounded recycle free list when there is room (a rename, no
// data fsync — takeRecycled scrubs it before reuse), deleted otherwise.
func (w *WAL) retireSegment(s sealedSegment) error {
	w.mu.Lock()
	room := len(w.free) < walRecycleKeep
	w.mu.Unlock()
	if room {
		rpath := filepath.Join(w.dir, fmt.Sprintf("%s%010d%s", walRecyclePrefix, s.index, walRecycleSuffix))
		if err := os.Rename(s.path, rpath); err == nil {
			w.mu.Lock()
			w.free = append(w.free, rpath)
			w.mu.Unlock()
			return nil
		} else if os.IsNotExist(err) {
			return nil
		}
	}
	if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Segments returns the number of segment files currently live (sealed
// but not yet checkpoint-truncated, plus the active one).
func (w *WAL) Segments() int64 {
	w.mu.Lock()
	n := int64(len(w.sealed))
	w.mu.Unlock()
	if !w.closed {
		n++
	}
	return n
}

// ---- Database integration --------------------------------------------

// OpenWAL attaches a durable write-ahead log under dir to the database,
// first recovering whatever a previous process left there. It must be
// called before the database serves traffic.
//
// If dir holds an earlier checkpoint or segments, the database's
// in-memory contents are REPLACED by the recovered state: the page
// directory maps into value-less row stubs, then committed transactions
// replay from the segments in order, and a torn tail (incomplete or
// CRC-failing final record) is discarded. Otherwise the database's
// current contents are checkpointed as the initial durable image: every
// row is marked dirty once and the ordinary incremental pass writes
// them. Either way, every subsequent commit's record is appended and
// fsynced before its transactions become visible.
// (A large dataset is better streamed in with Load afterwards; a zero
// RecoveryInfo.CommitSeq says nothing was ever committed here.)
func (db *Database) OpenWAL(dir string, opts WALOptions) (*RecoveryInfo, error) {
	if db.wal != nil {
		return nil, fmt.Errorf("relational: database already has a WAL (dir %s)", db.wal.dir)
	}
	openStart := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:           dir,
		opts:          opts.withDefaults(),
		fsyncHist:     obs.NewDurationHistogram(),
		ckptPauseHist: obs.NewDurationHistogram(),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	var recycleFiles []string
	for _, e := range entries {
		name := e.Name()
		if idx, ok := parseSegmentIndex(name); ok {
			segs = append(segs, idx)
		}
		if strings.HasPrefix(name, walRecyclePrefix) && strings.HasSuffix(name, walRecycleSuffix) {
			recycleFiles = append(recycleFiles, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Strings(recycleFiles)
	// Recycled files left by a previous process are reusable as-is:
	// takeRecycled scrubs them before they re-enter service, and
	// recovery never scans them.
	w.free = recycleFiles

	// The page store recovers its directory unconditionally; a fresh
	// directory just yields an empty Recovered.
	store, rec, err := pagestore.Open(dir, pagestore.Options{
		DirLogLimit: w.opts.CheckpointDeltaLimit,
		Failpoint:   evalFailpoint,
	})
	if err != nil {
		return nil, fmt.Errorf("relational: page store: %w", err)
	}
	w.pager = newPager(store, w.opts.PageCacheBytes)
	// Attach before recovery: segment replay materializes paged stubs
	// through db.wal.pager. Detached again on every error path below.
	db.wal = w

	info := &RecoveryInfo{Segments: len(segs)}
	nextIndex := uint64(1)
	if len(segs) > 0 {
		nextIndex = segs[len(segs)-1] + 1
	}
	fresh := len(segs) == 0 && rec.Seq == 0 && rec.Records == 0
	var repair []byte
	if !fresh {
		if repair, err = db.recoverFrom(w, dir, segs, &rec, info); err != nil {
			db.wal = nil
			store.Close()
			return nil, err
		}
		// Recovered segments stay on disk until the next checkpoint
		// supersedes them; register them for that truncation.
		for _, idx := range segs {
			w.sealed = append(w.sealed, sealedSegment{index: idx, path: segmentPath(dir, idx)})
		}
		w.sealedSinceC.Store(int64(len(segs)))
	}
	err = w.openSegment(nextIndex)
	if err == nil && len(repair) > 0 {
		// Before the log serves traffic, so that no later commit can land
		// behind a gap; a crash before this fsync just repeats the repair.
		if _, err = w.f.Write(repair); err == nil {
			err = w.f.Sync()
		}
		w.segBytes = int64(len(repair))
		w.bytes.Add(w.segBytes)
		w.fsyncs.Add(1)
	}
	if err != nil {
		if w.f != nil {
			w.f.Close()
		}
		db.wal = nil
		store.Close()
		return nil, err
	}
	w.opts.Coordinator = nil // recovery-only: let the coordinator's frames go
	db.walRecoveredTxns.Store(info.ReplayedTxns)
	w.pipe = make(chan *walReq, 128)
	w.writerDone = make(chan struct{})
	go w.writerLoop(db)
	if fresh {
		// Fresh directory: what the database already holds was committed
		// with no log to mark it dirty in, so mark every row once and let
		// the ordinary pass write the initial image (possibly empty).
		for _, td := range db.tables {
			for id := range td.rows {
				td.markDirtyRow(id)
			}
		}
		if err := db.Checkpoint(); err != nil {
			w.stopWriter()
			db.wal = nil
			w.f.Close()
			store.Close()
			return nil, err
		}
	}
	info.CommitSeq = db.commitSeq.Load()
	info.RecoveryNanos = time.Since(openStart).Nanoseconds()
	return info, nil
}

// recoverFrom rebuilds the database from the recovered page directory
// and the segment chain: wipe, map the directory into lazy row stubs
// (no page reads), replay newer committed transactions, discard the
// torn tail, then replay — and return, for OpenWAL to re-append — what
// the Coordinator holds past the last sequence the segments do. That is
// exactly the lost committed records: a shard's commit latch is held from
// a prepare's stamp to its publish, so append order is sequence order and
// a crash loses a suffix; no acknowledged single-shard commit is in it
// (its fsync covered all before it, and a prepare stamped behind it was
// not written until that fsync returned), only prepares and commits
// nobody was told about. The commit sequence resumes past every record on
// disk, filtered ones included, so none it has seen is reissued.
func (db *Database) recoverFrom(w *WAL, dir string, segs []uint64, rec *pagestore.Recovered, info *RecoveryInfo) (repair []byte, err error) {
	db.resetStorage()
	if rec.Seq > 0 || rec.Records > 0 {
		rows, err := db.restoreFromPages(w, rec)
		if err != nil {
			return nil, fmt.Errorf("relational: checkpoint: %w", err)
		}
		w.checkpointSeq.Store(rec.Seq)
		info.CheckpointSeq = rec.Seq
		info.CheckpointRows = rows
		info.CheckpointDeltas = rec.Records
		db.commitSeq.Store(rec.Seq)
	}
	w.chainLen.Store(int64(w.pager.store.Stats().DirChainLen))

	ckptSeq := info.CheckpointSeq
	last := ckptSeq // highest sequence the log still holds
	replay := func(t walTxn, where string) error {
		if err := db.replayTxn(t); err != nil {
			return fmt.Errorf("relational: replay %s: %w", where, err)
		}
		info.ReplayedTxns++
		info.ReplayedOps += int64(len(t.ops))
		return nil
	}
	stopped := false
	trimmed := false
	for _, idx := range segs {
		path := segmentPath(dir, idx)
		if stopped {
			// Past the first bad record nothing was ever acknowledged;
			// remove later segments so a future recovery cannot replay
			// beyond the same stopping point.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		txns, valid := scanFrames(data)
		for _, t := range txns {
			if t.xid > info.MaxXid {
				info.MaxXid = t.xid
			}
			if t.seq > last {
				last = t.seq
			}
			if t.seq <= ckptSeq {
				continue // already inside the checkpoint image
			}
			if c := w.opts.Coordinator; t.xid != 0 && c != nil && !c.Committed(t.xid) {
				// Prepared under a cross-shard transaction the coordinator
				// never recorded as committed: every shard discards it, so
				// no shard exposes a torn half of the transaction.
				info.FilteredTxns++
				continue
			}
			if err := replay(t, fmt.Sprintf("segment %d", idx)); err != nil {
				return nil, err
			}
		}
		if valid < int64(len(data)) {
			if allZero(data[valid:]) {
				// Preallocation slack: the segment was extended at creation
				// and the zeros were never overwritten by records. Trim the
				// slack quietly and keep scanning — nothing was torn.
				if err := os.Truncate(path, valid); err != nil {
					return nil, err
				}
				trimmed = true
				continue
			}
			info.TornTail = true
			info.TruncatedBytes += int64(len(data)) - valid
			if err := os.Truncate(path, valid); err != nil {
				return nil, err
			}
			stopped = true
		}
	}
	if info.TornTail || trimmed {
		if err := SyncDir(dir); err != nil {
			return nil, err
		}
	}
	if c := w.opts.Coordinator; c != nil {
		repair = c.FramesAfter(last)
		txns, valid := scanFrames(repair)
		if valid != int64(len(repair)) {
			return nil, fmt.Errorf("relational: coordinator frames past sequence %d: %w", last, errWALCorrupt)
		}
		for _, t := range txns {
			if err := replay(t, "coordinator frame"); err != nil {
				return nil, err
			}
			info.RepairedTxns++
			last = t.seq
		}
	}
	db.commitSeq.Store(last)
	db.stampSeq.Store(last)
	return repair, nil
}

// allZero reports whether every byte is zero — the signature of
// preallocated-segment slack past the last record.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// resetStorage drops every row and index entry, leaving schema-shaped
// empty tables for recovery to fill. Only called before the database
// serves traffic.
func (db *Database) resetStorage() {
	db.tables = buildTableStorage(db.schema)
	db.nextRowID = 1
	db.commitSeq.Store(0)
	db.stampSeq.Store(0)
	if w := db.wal; w != nil && w.pager != nil {
		w.pager.rowSlot = make(map[string]map[RowID]uint32)
	}
}

// replayTxn reapplies one committed transaction's row operations. The
// data was fully constraint-checked when it first committed, so replay
// maintains storage and indexes directly without re-validation.
func (db *Database) replayTxn(t walTxn) error {
	for _, op := range t.ops {
		td, err := db.tableData(op.table)
		if err != nil {
			return err
		}
		// Replayed rows are newer than the loaded checkpoint state, so
		// they are dirty relative to it: the next delta must cover them.
		td.markDirtyRow(op.id)
		switch op.kind {
		case walOpInsert:
			if _, exists := td.rows[op.id]; exists {
				return fmt.Errorf("%w: duplicate insert of %s rowid %d", errWALCorrupt, op.table, op.id)
			}
			v := newVersion(Row{ID: op.id, Values: op.values}, t.seq)
			td.rows[op.id] = v
			td.order = append(td.order, op.id)
			td.live++
			for _, ix := range td.indexes {
				ix.insert(op.id, op.values)
			}
			if op.id >= db.nextRowID {
				db.nextRowID = op.id + 1
			}
		case walOpUpdate:
			if _, ok := td.rows[op.id]; !ok {
				return fmt.Errorf("%w: update of missing %s rowid %d", errWALCorrupt, op.table, op.id)
			}
			// A checkpoint-restored stub must fault its values in before
			// the old version's index entries can be re-derived.
			db.materializeLocked(td, op.id)
			old := td.rows[op.id]
			nv := newVersion(Row{ID: op.id, Values: op.values}, t.seq)
			removeVersionEntries(td, op.id, old, nv)
			td.rows[op.id] = nv
			for _, ix := range td.indexes {
				ix.insert(op.id, op.values)
			}
		case walOpDelete:
			if _, ok := td.rows[op.id]; !ok {
				return fmt.Errorf("%w: delete of missing %s rowid %d", errWALCorrupt, op.table, op.id)
			}
			db.materializeLocked(td, op.id) // see walOpUpdate
			old := td.rows[op.id]
			removeVersionEntries(td, op.id, old, nil)
			delete(td.rows, op.id)
			td.dirty = true
			td.live--
		}
	}
	return nil
}

// Checkpoint persists the committed state durably and truncates the
// segments it supersedes. Most passes are INCREMENTAL: only the rows
// dirtied since the previous checkpoint (plus the clean survivors
// sharing their superseded pages) are packed into fresh copy-on-write
// heap pages and installed with one page-directory record, so the
// pause costs O(dirty-pages), not O(database); the store folds its
// directory log into a compact base asynchronously, off the pause
// path. Commits are blocked only for the writer-stage drain, sequence
// pin, dirty-set swap and segment rotation; page packing runs against
// the pinned MVCC snapshot while traffic proceeds. Crash-safe at every
// step: fresh pages are written and fsynced strictly before the
// directory record that references them, and only after that record is
// durable are superseded segments retired — recovery handles a death
// between any two of those steps (orphaned pages freed, prior
// directory+segments replayed, or new state mapped with
// already-covered records skipped by sequence).
//
// After the install is durable, freshly checkpointed clean rows are
// stamped with their page slot and — when eligible — demoted to
// value-less stubs, which is what lets the reclaimer shed cold rows
// from memory.
func (db *Database) Checkpoint() error {
	w := db.wal
	if w == nil {
		return nil
	}
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()

	start := time.Now()
	defer func() {
		ns := time.Since(start).Nanoseconds()
		w.ckptPauseHist.Record(ns)
		w.lastCkptPauseNs.Store(ns)
	}()

	db.commitMu.Lock()
	if w.closed {
		db.commitMu.Unlock()
		return ErrWALClosed
	}
	// Drain the writer stage: once the barrier reports ready, every
	// enqueued group is durable and published (commitSeq has caught up
	// to stampSeq) and the writer is parked until resume closes, so
	// rotating the active segment cannot race its file handle.
	b := &walBarrier{ready: make(chan struct{}), resume: make(chan struct{})}
	w.pipe <- &walReq{barrier: b}
	<-b.ready
	seq := db.commitSeq.Load()
	snap := db.Snapshot()
	dirty := db.swapDirtyRowsLocked()
	err := w.rotate() // sealed segments now all precede seq
	close(b.resume)
	db.commitMu.Unlock()

	fail := func(e error) error {
		snap.Close()
		db.mergeDirtyRows(dirty)
		return e
	}
	if err != nil {
		return fail(fmt.Errorf("relational: checkpoint rotate: %w", err))
	}
	w.mu.Lock()
	supersede := make([]sealedSegment, len(w.sealed))
	copy(supersede, w.sealed)
	w.mu.Unlock()

	// Only the dirty set and its page-mates move; the store folds its own
	// directory chain.
	plan, err := db.buildPageInstalls(snap, dirty)
	if err != nil {
		return fail(err)
	}
	if err := evalFailpoint(FpCheckpointWrite); err != nil {
		return fail(err)
	}
	// Install even when the plan is empty: the directory record durably
	// advances the checkpoint sequence, which is what lets the segments
	// rotated away above be retired.
	placements, err := w.pager.store.Install(seq, plan.installs, plan.freedSlots)
	if err != nil {
		return fail(err)
	}
	// Publish with the snapshot still open: its registration blocks the
	// reclaimer from dropping rows deleted after the pin before their
	// page mappings are cleared.
	db.applyPagePlacements(seq, placements, plan)
	snap.Close()
	w.chainLen.Store(int64(w.pager.store.Stats().DirChainLen))
	return w.finishCheckpoint(seq, supersede)
}

// finishCheckpoint publishes the new checkpoint sequence and retires
// what it supersedes: sealed segments go to the recycle list (or are
// deleted past its cap).
func (w *WAL) finishCheckpoint(seq uint64, supersede []sealedSegment) error {
	w.checkpointSeq.Store(seq)
	w.checkpoints.Add(1)
	w.sealedSinceC.Store(0)
	if err := evalFailpoint(FpCheckpointTruncate); err != nil {
		return err
	}
	for _, s := range supersede {
		if err := w.retireSegment(s); err != nil {
			return err
		}
	}
	if err := SyncDir(w.dir); err != nil {
		return err
	}
	w.mu.Lock()
	remaining := w.sealed[:0]
	superseded := make(map[uint64]bool, len(supersede))
	for _, s := range supersede {
		superseded[s.index] = true
	}
	for _, s := range w.sealed {
		if !superseded[s.index] {
			remaining = append(remaining, s)
		}
	}
	w.sealed = remaining
	w.mu.Unlock()
	return nil
}

// maybeCheckpoint runs a checkpoint when enough segments have sealed
// since the last one (commits piggyback it, like Reclaim).
func (db *Database) maybeCheckpoint() {
	w := db.wal
	if w == nil || w.opts.CheckpointEverySegments <= 0 {
		return
	}
	if w.sealedSinceC.Load() >= int64(w.opts.CheckpointEverySegments) {
		_ = db.Checkpoint()
	}
}

// StartCheckpointer checkpoints on the given interval in a background
// goroutine until the returned stop function is called (idempotent).
// Intervals with no commits skip the pass, so an idle database costs
// nothing. Long-running hosts (the ufilterd daemon) use it to bound
// recovery replay time; CheckpointEverySegments bounds it by volume
// instead.
func (db *Database) StartCheckpointer(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastAppends int64
		for {
			select {
			case <-done:
				return
			case <-t.C:
				w := db.wal
				if w == nil {
					continue
				}
				if n := w.appends.Load(); n != lastAppends {
					lastAppends = n
					_ = db.Checkpoint()
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// CloseWAL seals the write-ahead log for shutdown: final fsync, close.
// Further commits fail with ErrWALFailed (wrapping ErrWALClosed); reads
// keep working. Idempotent.
func (db *Database) CloseWAL() error {
	w := db.wal
	if w == nil {
		return nil
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.stopWriter()
	err := w.f.Sync()
	if err == nil {
		w.fsyncs.Add(1)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	// Closing the page store waits out any in-flight base compaction.
	// Rows still materialized in memory stay readable; a read that
	// would fault a page from the closed store panics, so callers stop
	// traffic before shutdown (the server does).
	if p := w.pager; p != nil {
		if serr := p.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// WALDir returns the attached log's directory ("" without a WAL).
func (db *Database) WALDir() string {
	if db.wal == nil {
		return ""
	}
	return db.wal.dir
}

// CheckpointSeq returns the last DURABLE checkpoint's commit sequence (0
// without a WAL): recovery skips every record at or below it.
func (db *Database) CheckpointSeq() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.checkpointSeq.Load()
}

// FsyncHistogram snapshots the WAL fsync duration distribution (empty
// when no WAL is attached).
func (db *Database) FsyncHistogram() obs.Snapshot {
	if db.wal == nil {
		return obs.Snapshot{}
	}
	return db.wal.fsyncHist.Snapshot()
}

// LastFsyncNanos returns the duration of the most recent commit-path
// WAL fsync, or 0 without a WAL. A traced apply reads it right after
// its Commit returns to attribute fsync time within the commit wait it
// observed.
func (db *Database) LastFsyncNanos() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.lastFsyncNs.Load()
}

// CheckpointPauseHistogram snapshots the distribution of checkpoint
// pass durations — the stall observed by whichever caller triggered the
// pass (empty when no WAL is attached).
func (db *Database) CheckpointPauseHistogram() obs.Snapshot {
	if db.wal == nil {
		return obs.Snapshot{}
	}
	return db.wal.ckptPauseHist.Snapshot()
}
