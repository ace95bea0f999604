package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	heapFileName = "heap.pg"
	dirBaseName  = "pagedir.base"
	dirTmpName   = dirBaseName + ".tmp"
	dirLogPrefix = "pagedir-"
	dirLogSuffix = ".log"

	// Record kinds: a record maps pages, never rows.
	dirRecInstall = 'i'
	dirRecBase    = 'b'

	// maxDirRecord bounds one directory frame. A page costs at most 32
	// bytes of a record — slot and extent 5 each, sequence 10, table name
	// 12 with its length byte — and a freed slot 5, so a base naming
	// every page of a 2^21-page (8 GiB) heap fits in 2^21 × 32 = 2^26.
	maxDirRecord = 1 << 26

	defaultDirLogLimit = 8
)

// Failpoint names fired through Options.Failpoint.
const (
	fpWrite     = "pagestore.write"     // before each heap page write
	fpDirectory = "pagestore.directory" // before each directory append
	fpCompact   = "compact.page"        // in the async base-compaction goroutine
	fpRename    = "checkpoint.rename"   // before renaming the compacted base
	fpTrigger   = "checkpoint.compact"  // when base compaction is triggered
)

// Options configures a Store.
type Options struct {
	// DirLogLimit is the number of directory install records tolerated
	// beyond the base before an asynchronous base compaction folds them.
	// 0 means the default (8); negative means compact after every record.
	DirLogLimit int
	// Failpoint, if set, is consulted before each write-path step with a
	// failpoint name; a non-nil error aborts the step. Used to wire the
	// store into the crash-injection harness.
	Failpoint func(name string) error
}

// PageInfo describes one live page. Rows — the ids packed onto it, in
// page order — is set only on what Install returns and is not kept: the
// page itself is the record of its rows.
type PageInfo struct {
	Slot  uint32
	Slots uint32
	Seq   uint64
	Table string
	Rows  []int64
}

// Recovered reports the state mapped from the directory at Open.
type Recovered struct {
	// Seq is the latest checkpoint sequence durably installed.
	Seq uint64
	// Records is the number of directory install records applied (base
	// counts as one).
	Records int
	// Pages is the live page table, ascending by slot (Rows unset).
	Pages []PageInfo
}

// InstallRow is one row image to place during Install: all the store
// records of a row is its id and payload on the page.
type InstallRow struct {
	ID      int64
	Payload []byte
}

// Install is the set of row images of one table to pack into fresh pages.
type Install struct {
	Table string
	Rows  []InstallRow
}

type pageEntry struct {
	slots uint32
	seq   uint64
	table string
}

// Store is the paged checkpoint storage: a write-once heap of 4KiB page
// slots plus an append-only directory that maps the live page set.
// Install (checkpoint) and Release are serialized by the caller;
// ReadPage is safe concurrently with everything.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	heap      *os.File
	heapSlots uint32
	free      []uint32
	pages     map[uint32]pageEntry
	retired   map[uint32]uint32 // freed by Install, not yet Released: extent lengths
	logF      *os.File
	logIndex  uint64
	recID     uint64
	recsSince int // install records since the durable base
	baseBusy  bool
	closed    bool

	compactWG   sync.WaitGroup
	pagesEver   atomic.Uint64 // cumulative pages written by Install
	compactErrV atomic.Value  // last async compaction error (error)
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	PagesTotal   uint64 // live pages in the directory
	SlotsTotal   uint64 // heap slots ever allocated (heap size / PageSize)
	FreeSlots    uint64 // slots available for reuse
	PagesWritten uint64 // cumulative pages written by checkpoints
	DirChainLen  uint64 // install records since the last durable base
}

func (s *Store) fp(name string) error {
	if s.opts.Failpoint == nil {
		return nil
	}
	return s.opts.Failpoint(name)
}

func dirLogName(index uint64) string {
	return fmt.Sprintf("%s%010d%s", dirLogPrefix, index, dirLogSuffix)
}

func parseDirLogIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, dirLogPrefix) || !strings.HasSuffix(name, dirLogSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, dirLogPrefix), dirLogSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open maps the page directory under dir (creating an empty store on
// first use) and returns the live page table. It reads no heap page: a
// caller that needs the rows reads the pages (ReadPage).
func Open(dir string, opts Options) (*Store, Recovered, error) {
	if opts.DirLogLimit == 0 {
		opts.DirLogLimit = defaultDirLogLimit
	}
	s := &Store{dir: dir, opts: opts, pages: make(map[uint32]pageEntry), retired: make(map[uint32]uint32)}

	heap, err := os.OpenFile(filepath.Join(dir, heapFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	s.heap = heap
	hs, err := heap.Stat()
	if err != nil {
		heap.Close()
		return nil, Recovered{}, err
	}
	// Round up: a torn tail page occupies its slots; they are free
	// (unreferenced) and will be rewritten whole.
	s.heapSlots = uint32((hs.Size() + PageSize - 1) / PageSize)

	rec, err := s.recover()
	if err != nil {
		heap.Close()
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// recover reads the base + log segments, builds the page table and free
// list, and opens the active log segment.
func (s *Store) recover() (Recovered, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return Recovered{}, err
	}
	var logs []uint64
	haveBase := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case e.Name() == dirBaseName:
			haveBase = true
		case e.Name() == dirTmpName:
			// Torn base compaction: discard.
			os.Remove(filepath.Join(s.dir, dirTmpName))
		default:
			if idx, ok := parseDirLogIndex(e.Name()); ok {
				logs = append(logs, idx)
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })

	var rec Recovered
	watermark := uint64(0)
	if haveBase {
		w, err := s.applyDirFile(filepath.Join(s.dir, dirBaseName), 0, &rec, true)
		if err != nil {
			return Recovered{}, err
		}
		watermark = w
		rec.Records++
	}
	for i, idx := range logs {
		tail := i == len(logs)-1
		if _, err := s.applyDirFile(filepath.Join(s.dir, dirLogName(idx)), watermark, &rec, tail); err != nil {
			return Recovered{}, err
		}
	}

	// Free list: every slot below the allocation high-water mark that no
	// live page references.
	used := make([]bool, s.heapSlots)
	for slot, pe := range s.pages {
		if end := uint64(slot) + uint64(pe.slots); end > uint64(s.heapSlots) {
			// Directory references beyond the heap: corrupt.
			return Recovered{}, fmt.Errorf("%w: directory references slot %d beyond heap end %d",
				ErrCorruptDirectory, end, s.heapSlots)
		}
		for i := slot; i < slot+pe.slots; i++ {
			used[i] = true
		}
	}
	for i := uint32(0); i < s.heapSlots; i++ {
		if !used[i] {
			s.free = append(s.free, i)
		}
	}

	// Open the active log segment (a fresh one past the highest seen).
	next := uint64(1)
	if len(logs) > 0 {
		next = logs[len(logs)-1] + 1
	}
	if err := s.openLogSegment(next); err != nil {
		return Recovered{}, err
	}

	rec.Pages = s.pageInfosLocked()
	return rec, nil
}

func (s *Store) openLogSegment(index uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, dirLogName(index)), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	if s.logF != nil {
		s.logF.Close()
	}
	s.logF = f
	s.logIndex = index
	return nil
}

// applyDirFile scans one directory file (base or log segment), applying
// records with recID > watermark. For the base it returns the folded
// watermark. tolerateTail permits a torn final record, which is
// truncated away. The file is read whole (records name pages, not rows:
// it is small), so a claimed frame length is checked against real bytes.
func (s *Store) applyDirFile(path string, watermark uint64, rec *Recovered, tolerateTail bool) (uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	baseWatermark := uint64(0)
	for off := 0; off < len(data); {
		payload, n, err := nextDirFrame(data[off:])
		if err != nil {
			if !tolerateTail {
				return 0, fmt.Errorf("%w: %v in %s", ErrCorruptDirectory, err, filepath.Base(path))
			}
			if err := f.Truncate(int64(off)); err != nil {
				return 0, err
			}
			return baseWatermark, f.Sync()
		}
		// A CRC-valid record that fails to decode is corruption, not a
		// torn tail: never tolerated.
		r, err := decodeDirRecord(payload)
		if err != nil {
			return 0, fmt.Errorf("%w in %s", err, filepath.Base(path))
		}
		if w := s.applyDirRecord(r, watermark, rec); w > baseWatermark {
			baseWatermark = w
		}
		off += n
	}
	return baseWatermark, nil
}

var (
	errDirTorn = errors.New("frame runs past the end of the file")
	errDirCRC  = errors.New("crc mismatch")
)

// nextDirFrame splits the first [len][crc] frame off data and verifies
// it, returning its payload (aliasing data) and the frame's length. It
// allocates nothing, whatever length the header claims.
func nextDirFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < pageFrameHeader {
		return nil, 0, errDirTorn
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen == 0 || plen > maxDirRecord || int64(plen) > int64(len(data)-pageFrameHeader) {
		return nil, 0, errDirTorn
	}
	payload = data[pageFrameHeader : pageFrameHeader+int(plen)]
	if crc32.Checksum(payload, pageCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, errDirCRC
	}
	return payload, pageFrameHeader + int(plen), nil
}

// dirRecord is one decoded directory record: a base (the page table; id
// = the install watermark it folds) or an install (pages added, freed).
type dirRecord struct {
	base  bool
	id    uint64
	seq   uint64
	pages []PageInfo
	freed []uint32
}

// decodeDirRecord parses one CRC-verified record payload. It never
// panics, and what it allocates is bounded by the payload's length
// (every page costs at least four bytes of it).
func decodeDirRecord(payload []byte) (dirRecord, error) {
	var r dirRecord
	if len(payload) == 0 {
		return r, ErrCorruptDirectory
	}
	kind, rd := payload[0], payload[1:]
	switch kind {
	case dirRecBase:
		r.base = true
	case dirRecInstall:
	default:
		return r, fmt.Errorf("%w: unknown record kind %q", ErrCorruptDirectory, kind)
	}
	d := dirDecoder{rd: rd}
	r.id, r.seq = d.next(math.MaxUint64), d.next(math.MaxUint64)
	npages := d.count(4)
	r.pages = make([]PageInfo, 0, npages)
	for range npages {
		pi := PageInfo{Slot: uint32(d.next(math.MaxUint32)), Slots: uint32(d.next(math.MaxUint32)), Seq: d.next(math.MaxUint64)}
		pi.Table = string(d.bytes())
		if pi.Slots == 0 || uint64(pi.Slot)+uint64(pi.Slots) > math.MaxUint32 {
			d.err = true
		}
		if d.err {
			return r, ErrCorruptDirectory
		}
		r.pages = append(r.pages, pi)
	}
	if !r.base {
		nfreed := d.count(1)
		r.freed = make([]uint32, 0, nfreed)
		for range nfreed {
			r.freed = append(r.freed, uint32(d.next(math.MaxUint32)))
		}
	}
	if d.err {
		return r, ErrCorruptDirectory
	}
	return r, nil
}

// dirDecoder reads uvarint fields; the first malformed one sets err,
// after which every read returns zero.
type dirDecoder struct {
	rd  []byte
	err bool
}

// next reads one uvarint no greater than max.
func (d *dirDecoder) next(max uint64) uint64 {
	v, n := binary.Uvarint(d.rd)
	if d.err || n <= 0 || v > max {
		d.err = true
		return 0
	}
	d.rd = d.rd[n:]
	return v
}

// count reads an element count the remaining bytes can hold at minBytes
// an element.
func (d *dirDecoder) count(minBytes int) int {
	if v := d.next(math.MaxUint32); v <= uint64(len(d.rd)/minBytes) {
		return int(v)
	}
	d.err = true
	return 0
}

func (d *dirDecoder) bytes() []byte {
	b := d.rd[:d.count(1)]
	d.rd = d.rd[len(b):]
	return b
}

// applyDirRecord applies one decoded record. For a base it returns the
// folded watermark.
func (s *Store) applyDirRecord(r dirRecord, watermark uint64, rec *Recovered) uint64 {
	if !r.base && r.id <= watermark {
		return 0 // folded into the base already
	}
	for _, pi := range r.pages {
		s.pages[pi.Slot] = pageEntry{slots: pi.Slots, seq: pi.Seq, table: pi.Table}
	}
	for _, slot := range r.freed {
		delete(s.pages, slot)
	}
	if r.seq > rec.Seq {
		rec.Seq = r.seq
	}
	if r.id > s.recID {
		s.recID = r.id
	}
	if r.base {
		return r.id
	}
	rec.Records++
	s.recsSince++
	return 0
}

func (s *Store) pageInfosLocked() []PageInfo {
	infos := make([]PageInfo, 0, len(s.pages))
	for slot, pe := range s.pages {
		infos = append(infos, PageInfo{Slot: slot, Slots: pe.slots, Seq: pe.seq, Table: pe.table})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Slot < infos[j].Slot })
	return infos
}

// Stats returns store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		PagesTotal:   uint64(len(s.pages)),
		SlotsTotal:   uint64(s.heapSlots),
		FreeSlots:    uint64(len(s.free)),
		PagesWritten: s.pagesEver.Load(),
		DirChainLen:  uint64(s.recsSince),
	}
}

// CompactionErr returns the last asynchronous base-compaction error, if
// any (diagnostic only: a failed compaction leaves the previous base and
// log segments intact).
func (s *Store) CompactionErr() error {
	if e, ok := s.compactErrV.Load().(error); ok {
		return e
	}
	return nil
}

// Close waits for any in-flight base compaction and closes the files.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.logF != nil {
		if err := s.logF.Close(); err != nil {
			first = err
		}
	}
	if err := s.heap.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Install writes the given row sets to fresh copy-on-write pages, then
// durably appends one directory record installing them and logically
// freeing the superseded slots. On return the heap and directory are
// fsynced. Freed slots are NOT immediately reusable — the caller calls
// Release once no reader can hold a reference to their old content.
//
// Each page is written as soon as it is packed, from one reused
// slot-aligned buffer: a pass holds no more of the image than that.
//
// Durability order: heap writes + heap fsync happen strictly before the
// directory append + fsync, so a crash between the two only orphans
// fresh slots (recovered as free).
func (s *Store) Install(seq uint64, installs []Install, freed []uint32) ([]PageInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, os.ErrClosed
	}

	var (
		infos []PageInfo // the pages written, in write order
		frame []byte     // the page being written; reused across pages
	)
	// writePage packs rows into one page or extent, allocates its slots
	// and writes it to the heap.
	writePage := func(table string, rows []PageRow) error {
		frame = encodePage(frame, table, seq, rows)
		nslots := uint32(len(frame) / PageSize)
		var slot uint32
		if n := len(s.free); nslots == 1 && n > 0 {
			slot = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			// Fresh slots, and every extent, go at the heap end.
			slot = s.heapSlots
			s.heapSlots += nslots
		}
		ids := make([]int64, len(rows))
		for i := range rows {
			ids[i] = rows[i].ID
		}
		infos = append(infos, PageInfo{Slot: slot, Slots: nslots, Seq: seq, Table: table, Rows: ids})
		if err := s.fp(fpWrite); err != nil {
			return err
		}
		_, err := s.heap.WriteAt(frame, int64(slot)*PageSize)
		return err
	}
	// Phase 1: pack and write heap pages, then one heap fsync.
	writeAll := func() error {
		const capacity = PageSize - pageFrameHeader
		for _, ins := range installs {
			var cur []PageRow
			curBytes := 0
			overhead := 3*binary.MaxVarintLen64 + len(ins.Table)
			for _, r := range ins.Rows {
				rowBytes := 2*binary.MaxVarintLen64 + len(r.Payload)
				if curBytes > 0 && overhead+curBytes+rowBytes > capacity {
					if err := writePage(ins.Table, cur); err != nil {
						return err
					}
					cur, curBytes = cur[:0], 0
				}
				cur = append(cur, PageRow(r))
				curBytes += rowBytes
			}
			// The tail, or an oversized single row in its own extent.
			if len(cur) > 0 {
				if err := writePage(ins.Table, cur); err != nil {
					return err
				}
			}
		}
		if len(infos) == 0 {
			return nil
		}
		return s.heap.Sync()
	}
	// A failed install leaks nothing logically: the directory never
	// references the slots it allocated, and they return to the free list
	// (single pages) or stay orphaned until next recovery (extents).
	undoAlloc := func() {
		for _, pi := range infos {
			if pi.Slots == 1 {
				s.free = append(s.free, pi.Slot)
			}
		}
	}
	if err := writeAll(); err != nil {
		undoAlloc()
		return nil, err
	}

	// Phase 2: one durable directory record.
	s.recID++
	rec := encodeDirRecord(dirRecord{id: s.recID, seq: seq, pages: infos, freed: freed})
	if err := s.fp(fpDirectory); err != nil {
		undoAlloc()
		s.recID--
		return nil, err
	}
	if err := s.appendDirRecord(rec); err != nil {
		undoAlloc()
		s.recID--
		return nil, err
	}

	// Phase 3: apply in memory.
	for _, pi := range infos {
		s.pages[pi.Slot] = pageEntry{slots: pi.Slots, seq: pi.Seq, table: pi.Table}
	}
	for _, slot := range freed {
		s.retired[slot] = s.pages[slot].slots
		delete(s.pages, slot)
	}
	s.pagesEver.Add(uint64(len(infos)))
	s.recsSince++
	s.maybeCompactLocked()
	return infos, nil
}

// Release returns pages an Install freed to the reuse free list, every
// slot of their extents. Call only once no reader can still reference
// their old content (e.g. after the MVCC visibility horizon passes the
// freeing checkpoint).
func (s *Store) Release(slots []uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, slot := range slots {
		for i := range s.retired[slot] {
			s.free = append(s.free, slot+i)
		}
		delete(s.retired, slot)
	}
}

// appendDirRecord durably appends one framed record to the active log
// segment.
func (s *Store) appendDirRecord(frame []byte) error {
	if _, err := s.logF.Write(frame); err != nil {
		return err
	}
	return s.logF.Sync()
}

// encodeDirRecord frames a record: id, sequence, per page
// slot/extent/sequence/table, and an install's freed slots.
func encodeDirRecord(r dirRecord) []byte {
	kind := byte(dirRecInstall)
	if r.base {
		kind = dirRecBase
	}
	buf := append(make([]byte, pageFrameHeader, 64+32*len(r.pages)+8*len(r.freed)), kind)
	buf = binary.AppendUvarint(buf, r.id)
	buf = binary.AppendUvarint(buf, r.seq)
	buf = binary.AppendUvarint(buf, uint64(len(r.pages)))
	for _, pi := range r.pages {
		buf = binary.AppendUvarint(buf, uint64(pi.Slot))
		buf = binary.AppendUvarint(buf, uint64(pi.Slots))
		buf = binary.AppendUvarint(buf, pi.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(pi.Table)))
		buf = append(buf, pi.Table...)
	}
	if !r.base {
		buf = binary.AppendUvarint(buf, uint64(len(r.freed)))
		for _, slot := range r.freed {
			buf = binary.AppendUvarint(buf, uint64(slot))
		}
	}
	payload := buf[pageFrameHeader:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, pageCRC))
	return buf
}

// maybeCompactLocked kicks an asynchronous base compaction when the
// install-record chain exceeds the limit. The checkpoint pause never
// pays for it: the page-table snapshot is taken under the lock (cheap —
// one entry a page) and all I/O happens in a background goroutine.
// Requires s.mu held.
func (s *Store) maybeCompactLocked() {
	if s.baseBusy || s.recsSince == 0 || s.recsSince <= s.opts.DirLogLimit {
		return
	}
	if err := s.fp(fpTrigger); err != nil {
		return
	}
	snap := s.pageInfosLocked()
	watermark := s.recID
	seq := uint64(0)
	for _, pi := range snap {
		if pi.Seq > seq {
			seq = pi.Seq
		}
	}
	oldIndex := s.logIndex
	if err := s.openLogSegment(s.logIndex + 1); err != nil {
		s.compactErrV.Store(err)
		return
	}
	s.baseBusy = true
	s.recsSince = 0
	s.compactWG.Add(1)
	go s.compactBase(snap, watermark, seq, oldIndex)
}

// compactBase writes the full page table as a fresh base (tmp + fsync +
// rename + dir fsync), then deletes the folded log segments. A crash at
// any point leaves either the old base + all segments, or the new base
// (+ possibly stale segments whose records the watermark skips).
func (s *Store) compactBase(snap []PageInfo, watermark, seq uint64, maxSegIndex uint64) {
	defer s.compactWG.Done()
	fail := func(err error) {
		s.compactErrV.Store(err)
		s.mu.Lock()
		s.baseBusy = false
		s.mu.Unlock()
	}
	if err := s.fp(fpCompact); err != nil {
		fail(err)
		return
	}
	frame := encodeDirRecord(dirRecord{base: true, id: watermark, seq: seq, pages: snap})

	if err := ReplaceFile(s.dir, dirBaseName, frame, func() error { return s.fp(fpRename) }); err != nil {
		fail(err)
		return
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if idx, ok := parseDirLogIndex(e.Name()); ok && idx <= maxSegIndex {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	syncDir(s.dir)
	s.mu.Lock()
	s.baseBusy = false
	// Installs that arrived while this compaction ran may already have
	// pushed the chain past the limit again; fold them too. The WG Add
	// happens before this goroutine's Done, so Close's Wait stays sound.
	if !s.closed {
		s.maybeCompactLocked()
	}
	s.mu.Unlock()
}

// ReadPage reads the page at slot from the heap, verifies its CRC and
// splits it into rows whose payloads alias the one read buffer. Safe
// for concurrent use; the caller validates table/row membership against
// its authoritative mapping.
func (s *Store) ReadPage(slot uint32) (table string, seq uint64, rows []PageRow, err error) {
	buf, err := s.readExtent(slot, nil)
	if err != nil {
		return "", 0, nil, err
	}
	return decodePageFrame(buf)
}

// readFrame is the pool's loader: it reads the frame at slot into buf (a
// recycled one-slot buffer, or nil), verifies its CRC and names its
// table. page is the verified payload, aliasing extent — buf itself for
// a one-slot frame, a fresh buffer for a multi-slot extent.
func (s *Store) readFrame(slot uint32, buf []byte) (table string, page, extent []byte, err error) {
	if extent, err = s.readExtent(slot, buf); err != nil {
		return "", nil, nil, err
	}
	if page, err = verifyFrame(extent); err != nil {
		return "", nil, nil, err
	}
	name, _, _, _, err := pageHeader(page)
	if err != nil {
		return "", nil, nil, err
	}
	return string(name), page, extent, nil
}

// readExtent reads the whole frame that starts at slot — one slot, or
// the multi-slot extent its header announces — into buf when it holds a
// slot, a fresh buffer otherwise.
func (s *Store) readExtent(slot uint32, buf []byte) ([]byte, error) {
	if cap(buf) < PageSize {
		buf = make([]byte, PageSize)
	}
	buf = buf[:PageSize]
	if _, err := s.heap.ReadAt(buf, int64(slot)*PageSize); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(buf[0:4])
	if plen > maxPagePayload {
		return nil, fmt.Errorf("%w: bad frame length %d at slot %d", ErrCorruptPage, plen, slot)
	}
	if total := int(plen) + pageFrameHeader; total > PageSize {
		big := make([]byte, total)
		copy(big, buf)
		if _, err := s.heap.ReadAt(big[PageSize:], int64(slot)*PageSize+PageSize); err != nil {
			return nil, err
		}
		buf = big
	}
	return buf, nil
}

// ReplaceFile makes data the contents of dir/name durably: it writes and
// fsyncs name+".tmp", runs beforeRename (an error aborts), renames the
// tmp over name and fsyncs dir. A crash leaves the old file or the new
// one, and perhaps the tmp.
func ReplaceFile(dir, name string, data []byte, beforeRename func() error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
