package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
	dirTmpName   = "pagedir.tmp"
	dirLogPrefix = "pagedir-"
	dirLogSuffix = ".log"

	dirRecInstall = 'I'
	dirRecBase    = 'B'

	// maxDirRecord bounds one directory frame.
	maxDirRecord = 1 << 30

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

// RowRef identifies one row recorded in the page directory: its id plus
// opaque per-row metadata strings persisted alongside (the caller uses
// them to rebuild secondary indexes at recovery without reading pages).
type RowRef struct {
	ID   int64
	Meta []string
}

// PageInfo describes one live page of the recovered (or current) table.
type PageInfo struct {
	Slot  uint32
	Slots uint32
	Seq   uint64
	Table string
	Rows  []RowRef
}

// Recovered reports the state mapped from the directory at Open.
type Recovered struct {
	// Seq is the latest checkpoint sequence durably installed.
	Seq uint64
	// Records is the number of directory install records applied (base
	// counts as one).
	Records int
	// Pages is the live page table, ascending by slot.
	Pages []PageInfo
}

// InstallRow is one row image to place during Install.
type InstallRow struct {
	ID      int64
	Payload []byte
	Meta    []string
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
	rows  []RowRef
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
	pages     map[uint32]*pageEntry
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
// first use) and returns the live page table. No heap page is read:
// recovery cost is proportional to the directory, not the data.
func Open(dir string, opts Options) (*Store, Recovered, error) {
	if opts.DirLogLimit == 0 {
		opts.DirLogLimit = defaultDirLogLimit
	}
	s := &Store{dir: dir, opts: opts, pages: make(map[uint32]*pageEntry)}

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
	used := make(map[uint32]bool, len(s.pages))
	maxSlot := uint32(0)
	for slot, pe := range s.pages {
		for i := uint32(0); i < pe.slots; i++ {
			used[slot+i] = true
		}
		if slot+pe.slots > maxSlot {
			maxSlot = slot + pe.slots
		}
	}
	if maxSlot > s.heapSlots {
		// Directory references beyond the heap: corrupt.
		return Recovered{}, fmt.Errorf("%w: directory references slot %d beyond heap end %d",
			ErrCorruptDirectory, maxSlot, s.heapSlots)
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
// truncated away.
func (s *Store) applyDirFile(path string, watermark uint64, rec *Recovered, tolerateTail bool) (uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	var off int64
	hdr := make([]byte, pageFrameHeader)
	baseWatermark := uint64(0)
	for {
		_, err := io.ReadFull(f, hdr)
		if err == io.EOF {
			return baseWatermark, nil
		}
		if err == io.ErrUnexpectedEOF {
			if tolerateTail {
				return baseWatermark, truncateAt(f, off)
			}
			return 0, fmt.Errorf("%w: short header in %s", ErrCorruptDirectory, filepath.Base(path))
		}
		if err != nil {
			return 0, err
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		if plen == 0 || plen > maxDirRecord {
			if tolerateTail {
				return baseWatermark, truncateAt(f, off)
			}
			return 0, fmt.Errorf("%w: bad record length %d in %s", ErrCorruptDirectory, plen, filepath.Base(path))
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(f, payload); err != nil {
			if (err == io.ErrUnexpectedEOF || err == io.EOF) && tolerateTail {
				return baseWatermark, truncateAt(f, off)
			}
			return 0, err
		}
		if crc32.Checksum(payload, pageCRC) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if tolerateTail {
				return baseWatermark, truncateAt(f, off)
			}
			return 0, fmt.Errorf("%w: crc mismatch in %s", ErrCorruptDirectory, filepath.Base(path))
		}
		// A CRC-valid record that fails to decode is corruption, not a
		// torn tail: never tolerated.
		w, err := s.applyDirRecord(payload, watermark, rec)
		if err != nil {
			return 0, err
		}
		if w > baseWatermark {
			baseWatermark = w
		}
		off += int64(pageFrameHeader) + int64(plen)
	}
}

func truncateAt(f *os.File, off int64) error {
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// applyDirRecord decodes and applies one record payload. For base
// records it returns the folded watermark.
func (s *Store) applyDirRecord(payload []byte, watermark uint64, rec *Recovered) (uint64, error) {
	if len(payload) == 0 {
		return 0, ErrCorruptDirectory
	}
	kind := payload[0]
	rd := payload[1:]
	switch kind {
	case dirRecBase:
		w, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, ErrCorruptDirectory
		}
		rd = rd[n:]
		seq, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, ErrCorruptDirectory
		}
		rd = rd[n:]
		if err := s.applyPages(rd, nil); err != nil {
			return 0, err
		}
		if seq > rec.Seq {
			rec.Seq = seq
		}
		if w > s.recID {
			s.recID = w
		}
		return w, nil
	case dirRecInstall:
		id, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, ErrCorruptDirectory
		}
		rd = rd[n:]
		seq, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, ErrCorruptDirectory
		}
		rd = rd[n:]
		if id <= watermark {
			return 0, nil // folded into the base already
		}
		var freed []uint32
		if err := s.applyPages(rd, &freed); err != nil {
			return 0, err
		}
		for _, slot := range freed {
			delete(s.pages, slot)
		}
		if seq > rec.Seq {
			rec.Seq = seq
		}
		if id > s.recID {
			s.recID = id
		}
		rec.Records++
		s.recsSince++
		return 0, nil
	default:
		return 0, fmt.Errorf("%w: unknown record kind %q", ErrCorruptDirectory, kind)
	}
}

// applyPages decodes the shared page-list encoding: npages, then per
// page slot/nslots/seq/table/rows. If freedOut is non-nil it also
// decodes the trailing freed-slot list.
func (s *Store) applyPages(rd []byte, freedOut *[]uint32) error {
	npages, n := binary.Uvarint(rd)
	if n <= 0 || npages > uint64(len(rd)) {
		return ErrCorruptDirectory
	}
	rd = rd[n:]
	for i := uint64(0); i < npages; i++ {
		var pe pageEntry
		slot, n := binary.Uvarint(rd)
		if n <= 0 {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		nslots, n := binary.Uvarint(rd)
		if n <= 0 || nslots == 0 {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		pe.slots = uint32(nslots)
		seq, n := binary.Uvarint(rd)
		if n <= 0 {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		pe.seq = seq
		tl, n := binary.Uvarint(rd)
		if n <= 0 || tl > uint64(len(rd)-n) {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		pe.table = string(rd[:tl])
		rd = rd[tl:]
		nrows, n := binary.Uvarint(rd)
		if n <= 0 || nrows > uint64(len(rd)) {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		pe.rows = make([]RowRef, 0, nrows)
		for j := uint64(0); j < nrows; j++ {
			id, n := binary.Uvarint(rd)
			if n <= 0 {
				return ErrCorruptDirectory
			}
			rd = rd[n:]
			nmeta, n := binary.Uvarint(rd)
			if n <= 0 || nmeta > uint64(len(rd)) {
				return ErrCorruptDirectory
			}
			rd = rd[n:]
			meta := make([]string, 0, nmeta)
			for k := uint64(0); k < nmeta; k++ {
				ml, n := binary.Uvarint(rd)
				if n <= 0 || ml > uint64(len(rd)-n) {
					return ErrCorruptDirectory
				}
				rd = rd[n:]
				meta = append(meta, string(rd[:ml]))
				rd = rd[ml:]
			}
			pe.rows = append(pe.rows, RowRef{ID: int64(id), Meta: meta})
		}
		s.pages[uint32(slot)] = &pe
	}
	if freedOut != nil {
		nf, n := binary.Uvarint(rd)
		if n <= 0 || nf > uint64(len(rd)) {
			return ErrCorruptDirectory
		}
		rd = rd[n:]
		for i := uint64(0); i < nf; i++ {
			slot, n := binary.Uvarint(rd)
			if n <= 0 {
				return ErrCorruptDirectory
			}
			rd = rd[n:]
			*freedOut = append(*freedOut, uint32(slot))
		}
	}
	return nil
}

func (s *Store) pageInfosLocked() []PageInfo {
	infos := make([]PageInfo, 0, len(s.pages))
	for slot, pe := range s.pages {
		infos = append(infos, PageInfo{Slot: slot, Slots: pe.slots, Seq: pe.seq, Table: pe.table, Rows: pe.rows})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Slot < infos[j].Slot })
	return infos
}

// PageRows returns the directory row refs and extent length of a live
// page.
func (s *Store) PageRows(slot uint32) (refs []RowRef, slots uint32, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pe, ok := s.pages[slot]
	if !ok {
		return nil, 0, false
	}
	return pe.rows, pe.slots, true
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
	// writePage packs rows (refs alongside) into one page or extent,
	// allocates its slots and writes it to the heap.
	writePage := func(table string, rows []PageRow, refs []RowRef) error {
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
		infos = append(infos, PageInfo{Slot: slot, Slots: nslots, Seq: seq, Table: table, Rows: refs})
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
			var curRefs []RowRef
			curBytes := 0
			overhead := 3*binary.MaxVarintLen64 + len(ins.Table)
			for _, r := range ins.Rows {
				rowBytes := 2*binary.MaxVarintLen64 + len(r.Payload)
				if curBytes > 0 && overhead+curBytes+rowBytes > capacity {
					if err := writePage(ins.Table, cur, curRefs); err != nil {
						return err
					}
					cur, curRefs, curBytes = cur[:0], nil, 0
				}
				cur = append(cur, PageRow{ID: r.ID, Payload: r.Payload})
				curRefs = append(curRefs, RowRef{ID: r.ID, Meta: r.Meta})
				curBytes += rowBytes
			}
			// The tail, or an oversized single row in its own extent.
			if len(cur) > 0 {
				if err := writePage(ins.Table, cur, curRefs); err != nil {
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
	rec := encodeInstallRecord(s.recID, seq, infos, freed)
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
		s.pages[pi.Slot] = &pageEntry{slots: pi.Slots, seq: pi.Seq, table: pi.Table, rows: pi.Rows}
	}
	for _, slot := range freed {
		delete(s.pages, slot)
	}
	s.pagesEver.Add(uint64(len(infos)))
	s.recsSince++
	s.maybeCompactLocked()
	return infos, nil
}

// Release returns logically-freed slots to the reuse free list. Call
// only once no reader can still reference the slots' old content (e.g.
// after the MVCC visibility horizon passes the freeing checkpoint).
// Freed extents are split into single reusable slots.
func (s *Store) Release(slots []uint32, slotCounts []uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, slot := range slots {
		n := uint32(1)
		if i < len(slotCounts) && slotCounts[i] > 0 {
			n = slotCounts[i]
		}
		for j := uint32(0); j < n; j++ {
			s.free = append(s.free, slot+j)
		}
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

// beginDirRecord starts a directory record of the given kind with its
// frame header reserved; finishDirRecord backfills the header once the
// payload has been appended in place, so a record is built in one buffer.
func beginDirRecord(kind byte) []byte {
	return append(make([]byte, pageFrameHeader, 4096), kind)
}

func finishDirRecord(frame []byte) []byte {
	payload := frame[pageFrameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, pageCRC))
	return frame
}

// encodeInstallRecord builds one framed install record.
func encodeInstallRecord(recID, seq uint64, pages []PageInfo, freed []uint32) []byte {
	buf := beginDirRecord(dirRecInstall)
	buf = binary.AppendUvarint(buf, recID)
	buf = binary.AppendUvarint(buf, seq)
	buf = appendPageList(buf, pages)
	buf = binary.AppendUvarint(buf, uint64(len(freed)))
	for _, slot := range freed {
		buf = binary.AppendUvarint(buf, uint64(slot))
	}
	return finishDirRecord(buf)
}

func appendPageList(buf []byte, pages []PageInfo) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pages)))
	for _, pi := range pages {
		buf = binary.AppendUvarint(buf, uint64(pi.Slot))
		buf = binary.AppendUvarint(buf, uint64(pi.Slots))
		buf = binary.AppendUvarint(buf, pi.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(pi.Table)))
		buf = append(buf, pi.Table...)
		buf = binary.AppendUvarint(buf, uint64(len(pi.Rows)))
		for _, r := range pi.Rows {
			buf = binary.AppendUvarint(buf, uint64(r.ID))
			buf = binary.AppendUvarint(buf, uint64(len(r.Meta)))
			for _, m := range r.Meta {
				buf = binary.AppendUvarint(buf, uint64(len(m)))
				buf = append(buf, m...)
			}
		}
	}
	return buf
}

// maybeCompactLocked kicks an asynchronous base compaction when the
// install-record chain exceeds the limit. The checkpoint pause never
// pays for it: the page-table snapshot is taken under the lock (cheap —
// row slices are immutable and shared) and all I/O happens in a
// background goroutine. Requires s.mu held.
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
	buf := beginDirRecord(dirRecBase)
	buf = binary.AppendUvarint(buf, watermark)
	buf = binary.AppendUvarint(buf, seq)
	frame := finishDirRecord(appendPageList(buf, snap))

	tmpPath := filepath.Join(s.dir, dirTmpName)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		fail(err)
		return
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		fail(err)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fail(err)
		return
	}
	if err := f.Close(); err != nil {
		fail(err)
		return
	}
	if err := s.fp(fpRename); err != nil {
		fail(err)
		return
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, dirBaseName)); err != nil {
		fail(err)
		return
	}
	if err := syncDir(s.dir); err != nil {
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
	buf, err := s.readExtent(slot)
	if err != nil {
		return "", 0, nil, err
	}
	return decodePageFrame(buf)
}

// readFrame is the pool's loader: ReadPage plus the bytes the frame
// retains — the extent's slots (the buffer every payload aliases), one
// PageRow header per row and the table name.
func (s *Store) readFrame(slot uint32) (table string, rows []PageRow, size int64, err error) {
	buf, err := s.readExtent(slot)
	if err != nil {
		return "", nil, 0, err
	}
	table, _, rows, err = decodePageFrame(buf)
	return table, rows, int64(frameSlots(len(buf)))*PageSize + int64(len(rows))*pageRowBytes + int64(len(table)), err
}

// readExtent reads the whole frame that starts at slot: one slot, or
// the multi-slot extent its header announces.
func (s *Store) readExtent(slot uint32) ([]byte, error) {
	buf := make([]byte, PageSize)
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

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
