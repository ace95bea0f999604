package relational

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// checkpointing — recovers at open to exactly the set of transactions
// whose commit record was durable: no lost acknowledged commits, no
// torn partial applies, torn tails discarded.
//
// One log serves one or more MEMBER databases (OpenLog): the shards of
// a view keep their own rows, page stores, commit sequences and commit
// latches, and share the segment chain and its writer stage. A record
// carries one (member, group payload) sub-record per database it
// commits on, so a transaction across members is one record, one fsync,
// atomic by its single CRC.
//
// On-disk layout of a WAL directory (a member's page store lives in its
// own directory; a one-member log usually shares the log's):
//
//	FORMAT                    the layout's number, written first (see OpenLog)
//	wal-0000000001.seg        sealed segment (immutable once rotated away)
//	wal-0000000002.seg        active segment (append-only)
//	heap.pg                   slotted 4KiB pages: the checkpoint base image
//	pagedir                   page directory: the live page table, replaced whole
//
// Every active segment is extended with zeros to SegmentBytes when it
// opens (fresh, after recovery, at every rotation), so an append
// overwrites slack instead of growing the file and a commit's fsync
// has no file size to journal. A retired segment is removed.
//
// Every record is framed as [len uint32][crc32 uint32][payload]; the
// CRC covers the payload. An insert's or update's after-image in it is
// the row's payload (pager.go), the bytes its version and its page
// hold. Recovery reads segments in index order and stops at the first
// frame that is short, oversized or fails its CRC — everything before
// it is the committed prefix, everything at and after it never had a
// durable commit acknowledged (an all-zero tail, the slack the records
// never reached, is trimmed without being reported as torn).
//
// The checkpoint base image lives in internal/pagestore: a heap file of
// slotted copy-on-write pages plus one directory file. A checkpoint pass
// packs only the rows dirtied since the previous pass (plus the clean
// survivors sharing their pages) into fresh pages, so its heap writes
// are O(dirty-pages), not O(database), and then replaces the directory
// (about 12 bytes a live page) with tmp + fsync + rename. A sealed
// segment is retired once every member's checkpoint has passed the
// highest sequence it holds for that member, and recovery
// maps each member's pages (values fault in lazily through the buffer
// pool on first read) and then replays only records with newer
// sequences.

// walSegmentPrefix/walSegmentSuffix name segment files; the embedded
// index is monotonic and never reused.
const (
	walSegmentPrefix   = "wal-"
	walSegmentSuffix   = ".seg"
	walFrameHeaderSize = 8
	// walMaxRecordSize bounds a single record frame; anything larger in
	// a file is treated as corruption (stops recovery at that point).
	walMaxRecordSize = 1 << 28

	// dataDirFormat numbers the on-disk layout of a log directory and its
	// members' page stores; formatFileName holds it as decimal text. Any
	// change to that layout bumps it: nothing migrates an older one.
	dataDirFormat  = 2
	formatFileName = "FORMAT"
)

// Record payload type tags.
const (
	walTagMember = 'S' // a record: one (member, 'G' payload) sub-record per member
	walTagGroup  = 'G' // one member's commit group: N transactions' redo
)

// Row-operation tags inside a group record.
const (
	walOpInsert = 'I'
	walOpUpdate = 'U'
	walOpDelete = 'D'
)

// WALOptions tunes the write-ahead log. The zero value is production
// defaults; tests shrink SegmentBytes to force rotation.
type WALOptions struct {
	// SegmentBytes is the size each active segment is extended to when it
	// opens (default 4 MiB). A record that would cross it starts the next
	// segment; one larger than it is its segment's only record, extended
	// to hold it before it is written.
	SegmentBytes int64
	// PageCacheBytes caps each member's buffer pool holding decoded
	// checkpoint pages: cold committed rows drop their in-memory values
	// and fault back in through this pool, so the dataset may exceed RAM.
	// Zero means the default (256 MiB).
	PageCacheBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.PageCacheBytes <= 0 {
		o.PageCacheBytes = 256 << 20
	}
	return o
}

// RecoveryInfo reports what opening a log found and restored for one
// member.
type RecoveryInfo struct {
	// CheckpointSeq is the commit sequence of the recovered page
	// directory (zero when there was none).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointRows counts rows restored from the live pages, each
	// page-only: recovery reads each page once for its row ids and index
	// keys, and the values fault in on first read.
	CheckpointRows int `json:"checkpoint_rows"`
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
	// RecoveryNanos is the wall time opening the log took (page mapping
	// and segment replay, members in parallel, or the initial checkpoint
	// when the directory was fresh).
	RecoveryNanos int64 `json:"recovery_nanos,omitempty"`
}

// ErrWALClosed reports an append against a closed WAL (post-shutdown).
var ErrWALClosed = errors.New("relational: write-ahead log is closed")

// sealedSegment is a rotated-away segment awaiting checkpoint retirement.
type sealedSegment struct {
	path   string
	maxSeq []uint64 // per member: the highest sequence the segment holds
}

// WAL is the durable log attached to its member databases by OpenLog
// (OpenWAL for one). Records are enqueued under the members' commit
// latches and appended by the single writer goroutine; the small
// internal mutex only guards the sealed-segment list, which checkpoints
// mutate outside those latches.
type WAL struct {
	dir     string
	opts    WALOptions
	members []*Database // member i's sub-records carry index i

	fs pagestore.FS // FileSystem when the log opened

	f         pagestore.File // active segment; owned by the writer stage
	segIndex  uint64         // active segment's index
	segBytes  int64          // bytes appended to the active segment
	activeMax []uint64       // per member: highest sequence in the active segment
	closed    bool           // set by Close under every member's commitMu

	mu     sync.Mutex
	sealed []sealedSegment

	// pipe is the WAL writer stage's queue: records are enqueued under
	// their members' commit latches (so each member's queue order IS its
	// sequence order) and the writer goroutine writes, fsyncs and
	// publishes them strictly in that order.
	pipe       chan *walReq
	writerDone chan struct{}
	pipeDepth  atomic.Int64

	ckptMu sync.Mutex // serializes Checkpoint runs

	appends      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	groupCommits atomic.Int64 // fsynced writer batches
	groupedTxns  atomic.Int64 // transactions they published
	acrossFsyncs atomic.Int64 // of those batches, ones carrying a multi-member record
	checkpoints  atomic.Int64 // passes that installed every member's pages

	// fsyncHist records each commit-path fsync's duration; lastFsyncNs
	// holds the most recent one so a traced apply can split its commit
	// wait into publish time vs fsync time. ckptPauseHist records each
	// checkpoint pass's full duration — the stall its caller (the
	// checkpointer ticker, a seed, an explicit Checkpoint) observes —
	// and ckptStallHist only the part under every member's commit latch,
	// which is what commits wait for.
	fsyncHist       *obs.Histogram
	lastFsyncNs     atomic.Int64
	ckptPauseHist   *obs.Histogram
	ckptStallHist   *obs.Histogram
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

// FileSystem is the file system every log and page store opens
// through, and keeps for its life: pagestore.OS in production. A test
// puts a file system that fails operations, or one that records crash
// states, here before it opens a data dir, and puts OS back; such a test
// does not run in parallel.
var FileSystem = pagestore.OS

// stampFormat writes dataDirFormat into a fresh dir the way the page
// store writes its directory (pagestore.ReplaceFile) and refuses, touching
// nothing, a dir stamped with another number or holding files and no
// stamp. The stamp's tmp file alone is a first open a crash cut short:
// the dir is still fresh.
func stampFormat(fs pagestore.FS, dir string) error {
	want := strconv.Itoa(dataDirFormat)
	data, err := fs.ReadFile(filepath.Join(dir, formatFileName))
	if err == nil {
		if got := strings.TrimSpace(string(data)); got != want {
			return formatMismatch(dir, got)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() != formatFileName+".tmp" {
			return formatMismatch(dir, "none")
		}
	}
	return pagestore.ReplaceFile(fs, dir, formatFileName, []byte(want+"\n"))
}

// makeDir creates dir and its missing parents one level at a time, and
// syncs the parent of each it creates: a power cut cannot take back a
// directory an open went on to write files into.
func makeDir(fs pagestore.FS, dir string) error {
	err := fs.Mkdir(dir, 0o755)
	if errors.Is(err, os.ErrNotExist) {
		if err = makeDir(fs, filepath.Dir(dir)); err == nil {
			err = fs.Mkdir(dir, 0o755)
		}
	}
	if err == nil {
		return fs.SyncDir(filepath.Dir(dir))
	}
	if errors.Is(err, os.ErrExist) {
		return nil
	}
	return err
}

func formatMismatch(dir, found string) error {
	return fmt.Errorf("relational: %w: %s holds format %s, this binary reads format %d; reseed: delete %s",
		ErrDataDirFormat, dir, found, dataDirFormat, dir)
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

// skipWALValue returns b past one value of the WAL value encoding
// without copying a string out of it, the one kind whose decode
// allocates.
func skipWALValue(b []byte) ([]byte, error) {
	if len(b) > 0 && b[0] == walValStr {
		n, sz := binary.Uvarint(b[1:])
		if sz <= 0 || n > uint64(len(b)-1-sz) {
			return nil, errWALCorrupt
		}
		return b[1+sz+int(n):], nil
	}
	_, rest, err := decodeWALValue(b)
	return rest, err
}

// walOp is one decoded row operation of a replayed transaction.
type walOp struct {
	kind    byte
	table   string
	id      RowID
	payload []byte // the after-image, within the record's bytes; nil for deletes
}

// walTxn is one decoded committed transaction.
type walTxn struct {
	seq uint64
	ops []walOp
}

// walSub is one member's part of a decoded record.
type walSub struct {
	member int
	txns   []walTxn
}

// appendTxnOpsBody encodes one transaction's operations — everything in
// the per-txn wire format EXCEPT the leading commit sequence, which is
// not assigned yet. The undo log doubles as the write set: a created
// version (insert/update) carries the after-image, the version's
// payload copied as it is (a column count, then each value in the WAL
// value encoding: the row's page payload too), a delete needs only the
// row address, and execution order is kept so replay reproduces
// intra-transaction sequencing (insert→update→delete of the same row)
// exactly. Commits call this BEFORE taking the commit latch so the
// latch covers only validation and stamping; assembleGroupPayload
// splices the sequences in afterwards. b grows once, by the body's
// exact size (txnOpsBodyLen): a load batch's body is ≈ 0.5 MB.
func appendTxnOpsBody(b []byte, t *Txn) []byte {
	b = slices.Grow(b, txnOpsBodyLen(t))
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
		b = append(b, en.v.payload...)
	}
	return b
}

// txnOpsBodyLen is the length appendTxnOpsBody encodes t's body in.
func txnOpsBodyLen(t *Txn) int {
	n := uvarintLen(uint64(len(t.log)))
	for i := range t.log {
		en := &t.log[i]
		n += 1 + uvarintLen(uint64(len(en.table))) + len(en.table) + uvarintLen(uint64(en.id))
		if en.kind != undoDelete {
			n += len(en.v.payload)
		}
	}
	return n
}

// assembleGroupPayload appends a 'G' group payload built from
// pre-encoded per-txn bodies plus the sequences stamped under the latch.
// The output is byte-identical to the tests' reference encoder on the
// same group.
func assembleGroupPayload(out []byte, live []*Txn, bodies [][]byte) []byte {
	out = append(out, walTagGroup)
	out = binary.AppendUvarint(out, uint64(len(live)))
	for i, t := range live {
		out = binary.AppendUvarint(out, t.seq)
		out = append(out, bodies[i]...)
	}
	return out
}

// uvarintLen is the encoded length of v.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// encodeRecord frames req's record into buf (which must be empty),
//
//	'S', uvarint parts, parts × (uvarint member, uvarint len, 'G' payload)
//
// — reserved header, payload assembled in place, header backfilled.
func encodeRecord(buf []byte, req *walReq) []byte {
	frame := append(beginFrame(buf), walTagMember)
	frame = binary.AppendUvarint(frame, uint64(len(req.parts)))
	for i := range req.parts {
		p := &req.parts[i]
		n := 1 + uvarintLen(uint64(len(p.live)))
		for j, t := range p.live {
			n += uvarintLen(t.seq) + len(p.bodies[j])
		}
		frame = binary.AppendUvarint(frame, uint64(p.db.member))
		frame = binary.AppendUvarint(frame, uint64(n))
		frame = assembleGroupPayload(frame, p.live, p.bodies)
	}
	finishFrame(frame)
	return frame
}

// decodeRecord parses one record payload into its members' parts,
// appended to subs. It is total: arbitrary byte soup returns
// errWALCorrupt, never panics, and sizes nothing by a length the bytes
// merely claim — the fuzzer holds it to that.
func decodeRecord(b []byte, subs []walSub) ([]walSub, error) {
	if len(b) == 0 || b[0] != walTagMember {
		return subs, errWALCorrupt
	}
	b = b[1:]
	parts, sz := binary.Uvarint(b)
	if sz <= 0 || parts > uint64(len(b)) {
		return subs, errWALCorrupt
	}
	b = b[sz:]
	for range parts {
		member, sz := binary.Uvarint(b)
		if sz <= 0 || member > math.MaxInt32 {
			return subs, errWALCorrupt
		}
		b = b[sz:]
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return subs, errWALCorrupt
		}
		txns, err := decodeGroupPayload(b[sz : sz+int(n)])
		if err != nil {
			return subs, err
		}
		subs = append(subs, walSub{member: int(member), txns: txns})
		b = b[sz+int(n):]
	}
	if len(b) != 0 {
		return subs, errWALCorrupt
	}
	return subs, nil
}

// decodeGroupPayload parses one 'G' group payload. It is total, like
// decodeRecord.
func decodeGroupPayload(b []byte) ([]walTxn, error) {
	if len(b) < 1 || b[0] != walTagGroup {
		return nil, errWALCorrupt
	}
	b = b[1:]
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
		t := walTxn{seq: seq, ops: make([]walOp, 0, nops)}
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
				rest := b[sz:]
				for range ncols {
					var err error
					if rest, err = skipWALValue(rest); err != nil {
						return nil, err
					}
				}
				op.payload = b[:len(b)-len(rest)]
				b = rest
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
// Get/Put per record append instead of two fresh allocations (payload +
// frame copy) per fsynced group. Buffers grow to the largest record
// seen and stay that size.
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

// ScanFrames walks [len uint32][crc32 uint32][payload] frames, calling
// visit with each payload whose length and CRC hold; it returns the
// accepted prefix length.
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

// ---- append path ------------------------------------------------------

// rotate seals the active segment and opens the next. Called by the
// writer stage, or by Checkpoint while the writer is parked at its
// barrier. Every record of the segment was already synced; the seal's
// fsync makes durable what a failed append cut away since (truncateTo),
// so a sealed segment ends at its last good record after any power cut:
// a torn record in a sealed segment would end the log there, and with it
// the records acknowledged from later segments.
func (w *WAL) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if err := w.f.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.sealed = append(w.sealed, sealedSegment{path: segmentPath(w.dir, w.segIndex), maxSeq: w.activeMax})
	w.mu.Unlock()
	w.activeMax = make([]uint64, len(w.members))
	return w.openSegment(w.segIndex + 1)
}

// openSegment creates the segment file with the given index, extends
// it to SegmentBytes and makes both the size and the directory entry
// durable before it becomes the active segment.
func (w *WAL) openSegment(index uint64) error {
	f, err := w.fs.OpenFile(segmentPath(w.dir, index), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(w.opts.SegmentBytes)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	w.fsyncs.Add(2)
	w.f = f
	w.segIndex = index
	w.segBytes = 0
	return nil
}

// ---- opening and recovery ---------------------------------------------

// OpenWAL attaches a durable write-ahead log under dir to the database,
// its only member, with its page store in the same directory, first
// recovering whatever a previous process left there. See OpenLog.
func (db *Database) OpenWAL(dir string, opts WALOptions) (*RecoveryInfo, error) {
	_, infos, err := OpenLog(dir, opts, []*Database{db}, []string{dir})
	if err != nil {
		return nil, err
	}
	return &infos[0], nil
}

// OpenLog attaches ONE durable write-ahead log under dir to every
// member: member i keeps its page store under pageDirs[i], its commit
// sequence and its commit latch, and its records carry index i. It must
// be called before the members serve traffic.
//
// A member with earlier state in its page directory or the log has its
// in-memory contents REPLACED: its live pages are read into page-only
// rows (members in parallel), the log is read once and each
// record's sub-records replay on their members (in parallel again) past
// each member's checkpoint, and a torn tail is discarded. A fresh
// member's current contents become its initial durable image: every
// row is marked dirty once for the ordinary incremental pass. (A large
// dataset is better streamed in with Load afterwards; a zero
// RecoveryInfo.CommitSeq says nothing was ever committed.)
//
// A fresh dir is stamped with the layout's number before any other file
// is created in it; a dir stamped with another number, or holding files
// and no stamp, is refused with ErrDataDirFormat and left as it was.
func OpenLog(dir string, opts WALOptions, members []*Database, pageDirs []string) (*WAL, []RecoveryInfo, error) {
	for _, db := range members {
		if db.wal != nil {
			return nil, nil, fmt.Errorf("relational: database already has a WAL (dir %s)", db.wal.dir)
		}
	}
	openStart := time.Now()
	fs := FileSystem
	if err := makeDir(fs, dir); err != nil {
		return nil, nil, err
	}
	if err := stampFormat(fs, dir); err != nil {
		return nil, nil, err
	}
	w := &WAL{
		dir:           dir,
		fs:            fs,
		opts:          opts.withDefaults(),
		members:       members,
		activeMax:     make([]uint64, len(members)),
		fsyncHist:     obs.NewDurationHistogram(),
		ckptPauseHist: obs.NewDurationHistogram(),
		ckptStallHist: obs.NewDurationHistogram(),
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if idx, ok := parseSegmentIndex(e.Name()); ok {
			segs = append(segs, idx)
		}
	}
	slices.Sort(segs)

	infos := make([]RecoveryInfo, len(members))
	var fresh atomic.Bool
	detach := func() {
		for _, db := range members {
			if db.pager != nil {
				db.pager.store.Close()
			}
			db.wal, db.pager = nil, nil
		}
	}
	// Every member's page store recovers its directory (a fresh one just
	// yields an empty Recovered); the live pages are read in parallel.
	err = parallel(len(members), func(i int) error {
		db := members[i]
		if err := makeDir(fs, pageDirs[i]); err != nil {
			return err
		}
		store, rec, err := pagestore.Open(fs, pageDirs[i])
		if err != nil {
			return fmt.Errorf("relational: page store: %w", err)
		}
		db.wal, db.member, db.pager = w, i, newPager(store, w.opts.PageCacheBytes)
		if len(segs) == 0 && rec.Seq == 0 && len(rec.Pages) == 0 {
			// What the database holds was committed with no log to mark
			// it dirty in: mark every row once for the initial pass.
			fresh.Store(true)
			for _, td := range db.tables {
				td.slots = make([]uint32, len(td.ids))
				for id := range td.rows {
					td.markDirtyRow(id)
				}
			}
			return nil
		}
		db.resetStorage()
		rows, err := db.restoreFromPages(&rec)
		if err != nil {
			return fmt.Errorf("relational: checkpoint: %w", err)
		}
		infos[i].CheckpointSeq, infos[i].CheckpointRows = rec.Seq, rows
		db.checkpointSeq.Store(rec.Seq)
		db.commitSeq.Store(rec.Seq)
		db.stampSeq.Store(rec.Seq)
		return nil
	})
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
		if err == nil {
			err = w.recover(segs, infos)
		}
	}
	if err == nil {
		err = w.openSegment(next)
	}
	if err != nil {
		detach()
		return nil, nil, err
	}
	w.pipe = make(chan *walReq, 128)
	w.writerDone = make(chan struct{})
	go w.writerLoop()
	if fresh.Load() {
		if err := w.Checkpoint(); err != nil {
			w.stopWriter()
			w.f.Close()
			detach()
			return nil, nil, err
		}
	}
	for i, db := range members {
		db.walRecoveredTxns.Store(infos[i].ReplayedTxns)
		infos[i].CommitSeq = db.commitSeq.Load()
		infos[i].RecoveryNanos = time.Since(openStart).Nanoseconds()
	}
	return w, infos, nil
}

// recover reads the segment chain once, fans each record's sub-records
// out to their members, discards the torn tail, then replays every
// member's newer transactions, members in parallel. Each member's
// records appear in its sequence order (they were enqueued under its
// commit latch), and its commit sequence resumes past every record of
// it on disk, so none is reissued.
func (w *WAL) recover(segs []uint64, infos []RecoveryInfo) error {
	n := len(w.members)
	perMember := make([][]walTxn, n)
	stopped, trimmed, torn := false, false, int64(0)
	var subs []walSub
	for _, idx := range segs {
		path := segmentPath(w.dir, idx)
		if stopped {
			// Past the first bad record nothing was ever acknowledged;
			// remove later segments so a future recovery cannot replay
			// beyond the same stopping point.
			if err := w.fs.Remove(path); err != nil {
				return err
			}
			continue
		}
		data, err := w.fs.ReadFile(path)
		if err != nil {
			return err
		}
		maxSeq := make([]uint64, n)
		var bad error
		valid := ScanFrames(data, func(payload []byte) bool {
			subs, err = decodeRecord(payload, subs[:0])
			if err != nil {
				return false
			}
			for _, s := range subs {
				if s.member >= n {
					bad = fmt.Errorf("relational: segment %d names member %d of %d", idx, s.member, n)
					return false
				}
				perMember[s.member] = append(perMember[s.member], s.txns...)
				if k := len(s.txns); k > 0 {
					maxSeq[s.member] = max(maxSeq[s.member], s.txns[k-1].seq)
				}
			}
			return true
		})
		if bad != nil {
			return bad
		}
		// Recovered segments stay on disk until a checkpoint supersedes
		// them; register them for that retirement.
		w.sealed = append(w.sealed, sealedSegment{path: path, maxSeq: maxSeq})
		if valid < int64(len(data)) {
			if err := w.cutSegment(path, valid); err != nil {
				return err
			}
			if allZero(data[valid:]) {
				// Slack: the segment was extended when it opened and the
				// records never reached these zeros. Trim them quietly and
				// keep scanning — nothing was torn.
				trimmed = true
				continue
			}
			torn += int64(len(data)) - valid
			stopped = true
		}
	}
	if stopped || trimmed {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return err
		}
	}
	return parallel(n, func(i int) error {
		db, info := w.members[i], &infos[i]
		info.Segments, info.TornTail, info.TruncatedBytes = len(segs), stopped, torn
		if err := db.replay(perMember[i], info); err != nil {
			return fmt.Errorf("relational: replay member %d: %w", i, err)
		}
		return nil
	})
}

// cutSegment cuts the segment at path to size and makes the cut durable
// before recovery goes on: a cut the next crash could undo would bring
// the torn bytes back under records a later segment acknowledges, and
// the recovery after it would stop at them.
func (w *WAL) cutSegment(path string, size int64) error {
	f, err := w.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.fsyncs.Add(1)
	}
	return err
}

// replay reapplies, in order, the transactions past the database's
// checkpoint and moves its commit sequence past every one it is given,
// so no sequence on disk is reissued.
func (db *Database) replay(txns []walTxn, info *RecoveryInfo) error {
	for _, t := range txns {
		if t.seq > db.commitSeq.Load() {
			db.commitSeq.Store(t.seq)
			db.stampSeq.Store(t.seq)
		}
		if t.seq <= db.CheckpointSeq() {
			continue // already inside the checkpoint image
		}
		if err := db.replayTxn(t); err != nil {
			return err
		}
		info.ReplayedTxns++
		info.ReplayedOps += int64(len(t.ops))
	}
	return nil
}

// parallel runs fn(i) for every i in [0, n) concurrently and returns the
// lowest-index error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allZero reports whether every byte is zero — the signature of a
// segment's slack past its last record. Recovery runs it over up to
// SegmentBytes per segment, so it compares a page at a time (bytes.Equal
// is vectorised; a byte loop costs ten times as much on 4 MiB).
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

var zeroPage [4096]byte

// resetStorage drops every row and index entry, leaving schema-shaped
// empty tables for recovery to fill. Only called before the database
// serves traffic.
func (db *Database) resetStorage() {
	db.tables = buildTableStorage(db.schema)
	db.nextRowID = 1
	db.commitSeq.Store(0)
	db.stampSeq.Store(0)
}

// replayTxn reapplies one committed transaction's row operations. The
// data was fully constraint-checked when it first committed, so replay
// maintains storage and indexes directly without re-validation. A
// created version keeps a copy of the record's after-image, which is
// its payload, and its index keys decode out of it (decodeColumns).
func (db *Database) replayTxn(t walTxn) error {
	var buf [scratchCols]Value
	for _, op := range t.ops {
		td, err := db.tableData(op.table)
		if err != nil {
			return err
		}
		var keys []Value // the after-image's indexed columns
		if op.kind != walOpDelete {
			if keys = buf[:]; len(td.want) > len(buf) {
				keys = make([]Value, len(td.want))
			}
			if err := decodeColumns(op.payload, keys, td.want); err != nil {
				return fmt.Errorf("%w: after-image of %s rowid %d", err, op.table, op.id)
			}
		}
		// Replayed rows are newer than the loaded checkpoint state, so
		// they are dirty relative to it: the next delta must cover them.
		td.markDirtyRow(op.id)
		switch op.kind {
		case walOpInsert:
			if _, dup := slices.BinarySearch(td.ids, op.id); dup {
				return fmt.Errorf("%w: duplicate insert of %s rowid %d", errWALCorrupt, op.table, op.id)
			}
			v := newVersion(bytes.Clone(op.payload), t.seq)
			td.rows[op.id] = v
			td.add(op.id) // commit order may differ from id order
			td.live++
			for _, ix := range td.indexes {
				ix.insert(op.id, keys)
			}
			if op.id >= db.nextRowID {
				db.nextRowID = op.id + 1
			}
		default:
			// A page-only row takes a version of its page image first: the
			// old values' index entries are derived from it.
			old := db.materializeLocked(td, op.id)
			if old == nil || old.end.Load() != liveSeq {
				return fmt.Errorf("%w: op %c on missing %s rowid %d", errWALCorrupt, op.kind, op.table, op.id)
			}
			if op.kind == walOpUpdate {
				nv := newVersion(bytes.Clone(op.payload), t.seq)
				removeVersionEntries(td, op.id, old, nv)
				td.rows[op.id] = nv
				for _, ix := range td.indexes {
					ix.insert(op.id, keys)
				}
				continue
			}
			td.live--
			if td.slotOf(op.id) != 0 {
				old.end.Store(t.seq) // the tombstone rule (pager.go)
				continue
			}
			removeVersionEntries(td, op.id, old, nil)
			delete(td.rows, op.id)
			td.dirty = true
		}
	}
	return nil
}

// ---- checkpoints ------------------------------------------------------

// Checkpoint runs one checkpoint pass over every member of the
// database's log (a no-op without one); see WAL.Checkpoint.
func (db *Database) Checkpoint() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Checkpoint()
}

// ckptPass is one member's share of a checkpoint: the sequence pinned at
// the barrier, a snapshot at it and the dirty set swapped out with it.
type ckptPass struct {
	seq   uint64
	snap  *Snapshot
	dirty map[string][]RowID
}

// Checkpoint persists every member's committed state durably and
// retires the segments it supersedes. The log is quiesced ONCE: under
// every member's commit latch (in member order) the writer stage drains
// to a barrier, each member pins its sequence, a snapshot and its dirty
// set, and the active segment rotates, so every sealed segment precedes
// every pinned sequence. Then the latches drop and the members' page
// installs run in parallel while traffic proceeds: only the rows
// dirtied since the previous pass (plus the clean survivors sharing
// their superseded pages) go into fresh copy-on-write pages named by one
// replaced directory, so the heap writes are O(dirty-pages), and freshly
// paged rows every reader sees drop their versions. Crash-safe at every
// step: pages are fsynced before the directory naming them, and
// a sealed segment is retired only once every member's durable
// checkpoint has passed the highest sequence it holds for that member.
func (w *WAL) Checkpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()

	start := time.Now()
	defer func() {
		ns := time.Since(start).Nanoseconds()
		w.ckptPauseHist.Record(ns)
		w.lastCkptPauseNs.Store(ns)
	}()

	unlock := w.lockMembers()
	latched := time.Now()
	if w.closed {
		unlock()
		return ErrWALClosed
	}
	b := &walBarrier{ready: make(chan struct{}), resume: make(chan struct{})}
	w.pipe <- &walReq{barrier: b}
	<-b.ready
	passes := make([]ckptPass, len(w.members))
	for i, db := range w.members {
		passes[i] = ckptPass{seq: db.commitSeq.Load(), snap: db.Snapshot(), dirty: db.swapDirtyRowsLocked()}
	}
	err := w.rotate() // sealed segments now all precede every pinned seq
	close(b.resume)
	unlock()
	w.ckptStallHist.Record(time.Since(latched).Nanoseconds())

	if err != nil {
		for i, db := range w.members {
			passes[i].snap.Close()
			db.mergeDirtyRows(passes[i].dirty)
		}
		return fmt.Errorf("relational: checkpoint rotate: %w", err)
	}
	err = parallel(len(w.members), func(i int) error { return w.members[i].installPages(passes[i]) })
	if err == nil {
		w.checkpoints.Add(1)
	}
	// Even when an install failed, the others may have freed segments.
	if rerr := w.retire(); err == nil {
		err = rerr
	}
	return err
}

// lockMembers takes every member's commit latch in member order and
// returns the release.
func (w *WAL) lockMembers() (unlock func()) {
	for _, db := range w.members {
		db.commitMu.Lock()
	}
	return func() {
		for _, db := range w.members {
			db.commitMu.Unlock()
		}
	}
}

// installPages writes one member's share of a checkpoint pass: the dirty
// set and its page-mates, packed into fresh pages and installed at the
// pinned sequence. On failure the dirty set goes back to the tables.
func (db *Database) installPages(p ckptPass) error {
	plan, err := db.buildPageInstalls(p.snap, p.dirty)
	var placements []pagestore.PageInfo
	if err == nil {
		// Install even when the plan is empty: the directory record
		// durably advances the checkpoint sequence, which is what lets the
		// segments rotated away be retired.
		placements, err = db.pager.store.Install(p.seq, plan.installs, plan.freedSlots)
	}
	if err != nil {
		p.snap.Close()
		db.mergeDirtyRows(p.dirty)
		return err
	}
	// Publish with the snapshot still open: its registration keeps the
	// reclaim horizon at or below the pinned sequence, so the apply drops
	// only versions whose image this pass installed.
	db.applyPagePlacements(placements, plan)
	p.snap.Close()
	db.checkpointSeq.Store(p.seq)
	return nil
}

// retire removes every sealed segment all of whose records every
// member's durable checkpoint covers. The removals are not synced: a
// power cut that undoes one brings back a sealed segment, whole (rotate
// synced it), whose records replay skips as inside the checkpoint, and
// the next pass retires it again; the next directory sync of the log's
// directory (a segment opening) makes them durable.
func (w *WAL) retire() error {
	w.mu.Lock()
	var done, kept []sealedSegment
	for _, s := range w.sealed {
		covered := true
		for i, seq := range s.maxSeq {
			covered = covered && seq <= w.members[i].checkpointSeq.Load()
		}
		if covered {
			done = append(done, s)
		} else {
			kept = append(kept, s)
		}
	}
	w.sealed = kept
	w.mu.Unlock()
	for _, s := range done {
		if err := w.fs.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// StartCheckpointer checkpoints the database's log on the given interval
// in a background goroutine until the returned stop function is called
// (idempotent). Intervals with no appends since the last pass that
// succeeded skip it, so an idle log costs nothing, and a failed pass is
// retried on the next tick. Long-running hosts (the ufilterd daemon) use
// it to bound recovery replay time. One ticker serves every member of a
// log.
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
				if n := w.appends.Load(); n != lastAppends && w.Checkpoint() == nil {
					lastAppends = n
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// CloseWAL closes the database's log — for every member; see WAL.Close.
func (db *Database) CloseWAL() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// Close seals the write-ahead log for shutdown: final fsync, close, and
// every member's page store closed. Further commits fail with
// ErrWALFailed (wrapping ErrWALClosed); reads of resident rows keep
// working. Idempotent.
func (w *WAL) Close() error {
	defer w.lockMembers()()
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
	// Rows still materialized in memory stay readable; a read that would
	// fault a page from a closed store panics, so callers stop traffic
	// before shutdown (the server does).
	for _, db := range w.members {
		if serr := db.pager.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// Stats reports the log's own counters — segments, bytes, fsyncs, the
// commit groups and transactions its writer stage published, checkpoint
// passes, the pipeline gauge and the fsync, pause and stall histograms;
// every other field is zero. It is one more part of its members'
// obs.FoldStats.
func (w *WAL) Stats() DBStats {
	w.mu.Lock()
	live := int64(len(w.sealed)) // sealed but not yet retired ...
	w.mu.Unlock()
	if !w.closed {
		live++ // ... plus the active one
	}
	return DBStats{
		WALSegments:         live,
		WALBytes:            w.bytes.Load(),
		Fsyncs:              w.fsyncs.Load(),
		GroupCommits:        w.groupCommits.Load(),
		GroupedTxns:         w.groupedTxns.Load(),
		Checkpoints:         w.checkpoints.Load(),
		WALPipelineDepth:    w.pipeDepth.Load(),
		FsyncHist:           w.fsyncHist.Snapshot(),
		CheckpointPauseHist: w.ckptPauseHist.Snapshot(),
		CheckpointStallHist: w.ckptStallHist.Snapshot(),
	}
}

// AcrossFsyncs counts the commit-path fsyncs that made a record across
// members durable.
func (w *WAL) AcrossFsyncs() int64 { return w.acrossFsyncs.Load() }

// CheckpointSeq returns the database's last DURABLE checkpoint's commit
// sequence (0 without a WAL): recovery skips every record at or below
// it.
func (db *Database) CheckpointSeq() uint64 { return db.checkpointSeq.Load() }

// LastFsyncNanos returns the duration of the log's most recent
// commit-path fsync, or 0 without a WAL. A traced apply reads it right
// after its Commit returns to attribute fsync time within the commit
// wait it observed.
func (db *Database) LastFsyncNanos() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.lastFsyncNs.Load()
}
