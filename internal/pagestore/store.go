package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	heapFileName = "heap.pg"
	dirFileName  = "pagedir"

	// maxDirRecord bounds the directory frame. A page costs at most 32
	// bytes of it — slot and extent 5 each, sequence 10, table name 12
	// with its length byte — so a directory naming every page of a
	// 2^21-page (8 GiB) heap fits in 2^21 × 32 = 2^26.
	maxDirRecord = 1 << 26
)

// Failpoint names fired through Options.Failpoint.
const (
	FpWrite     = "pagestore.write"     // before each heap page write
	FpDirectory = "pagestore.directory" // before the directory is rewritten
	FpRename    = "checkpoint.rename"   // before the rewritten directory is renamed into place
)

// Options configures a Store.
type Options struct {
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
// slots plus one directory file, rewritten whole by every Install, that
// maps the live page set. Install (checkpoint) and Release are
// serialized by the caller; ReadPage is safe concurrently with
// everything.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	heap      *os.File
	heapSlots uint32
	free      []uint32
	pages     map[uint32]pageEntry
	retired   map[uint32]uint32 // freed by Install, not yet Released: extent lengths
	pagesEver uint64            // cumulative pages written by Install
	closed    bool
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	PagesTotal   uint64 // live pages in the directory
	SlotsTotal   uint64 // heap slots ever allocated (heap size / PageSize)
	FreeSlots    uint64 // slots available for reuse
	PagesWritten uint64 // cumulative pages written by checkpoints
}

func (s *Store) fp(name string) error {
	if s.opts.Failpoint == nil {
		return nil
	}
	return s.opts.Failpoint(name)
}

// Open maps the page directory under dir (creating an empty store on
// first use) and returns the live page table. It reads no heap page: a
// caller that needs the rows reads the pages (ReadPage). A directory
// file that fails its CRC or does not decode is ErrCorruptDirectory, and
// the store's files are left as they were.
func Open(dir string, opts Options) (*Store, Recovered, error) {
	s := &Store{dir: dir, opts: opts, pages: make(map[uint32]pageEntry), retired: make(map[uint32]uint32)}
	var rec Recovered
	data, err := os.ReadFile(filepath.Join(dir, dirFileName))
	switch {
	case err == nil:
		if rec.Seq, rec.Pages, err = decodeDirectory(data); err != nil {
			return nil, Recovered{}, fmt.Errorf("%w: %v in %s", ErrCorruptDirectory, err, filepath.Join(dir, dirFileName))
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, Recovered{}, err
	}

	heap, err := os.OpenFile(filepath.Join(dir, heapFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	hs, err := heap.Stat()
	if err != nil {
		heap.Close()
		return nil, Recovered{}, err
	}
	// Round up: a torn tail page occupies its slots; they are free
	// (unreferenced) and will be rewritten whole.
	s.heap, s.heapSlots = heap, uint32((hs.Size()+PageSize-1)/PageSize)

	// Free list: every slot below the allocation high-water mark that no
	// live page references.
	used := make([]bool, s.heapSlots)
	for _, pi := range rec.Pages {
		if end := uint64(pi.Slot) + uint64(pi.Slots); end > uint64(s.heapSlots) {
			heap.Close()
			return nil, Recovered{}, fmt.Errorf("%w: directory references slot %d beyond heap end %d",
				ErrCorruptDirectory, end, s.heapSlots)
		}
		for i := pi.Slot; i < pi.Slot+pi.Slots; i++ {
			if used[i] {
				heap.Close()
				return nil, Recovered{}, fmt.Errorf("%w: directory maps slot %d twice", ErrCorruptDirectory, i)
			}
			used[i] = true
		}
		s.pages[pi.Slot] = pageEntry{slots: pi.Slots, seq: pi.Seq, table: pi.Table}
	}
	for i := uint32(0); i < s.heapSlots; i++ {
		if !used[i] {
			s.free = append(s.free, i)
		}
	}
	// A replace a crash cut short before its rename left its tmp file.
	if err := os.Remove(filepath.Join(dir, dirFileName+".tmp")); err != nil && !errors.Is(err, os.ErrNotExist) {
		heap.Close()
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

var (
	errDirTorn = errors.New("frame runs past the end of the file")
	errDirCRC  = errors.New("crc mismatch")
	errDirBody = errors.New("malformed page table")
)

// decodeDirectory verifies and parses a whole directory file: one
// [len][crc] frame holding the checkpoint sequence and, ascending by
// slot, each live page's slot, extent, sequence and table. Any byte
// outside the frame is corruption, since the file is only ever replaced
// whole. It never panics, allocates nothing whatever length the header
// claims, and what the page table costs is bounded by the payload's
// length (every page costs at least four bytes of it).
func decodeDirectory(data []byte) (seq uint64, pages []PageInfo, err error) {
	if len(data) < pageFrameHeader {
		return 0, nil, errDirTorn
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen > maxDirRecord || int64(plen) != int64(len(data)-pageFrameHeader) {
		return 0, nil, errDirTorn
	}
	payload := data[pageFrameHeader:]
	if crc32.Checksum(payload, pageCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, errDirCRC
	}
	d := dirDecoder{rd: payload}
	seq = d.next(math.MaxUint64)
	npages := d.count(4)
	pages = make([]PageInfo, 0, npages)
	for range npages {
		pi := PageInfo{Slot: uint32(d.next(math.MaxUint32)), Slots: uint32(d.next(math.MaxUint32)), Seq: d.next(math.MaxUint64)}
		pi.Table = string(d.bytes())
		if pi.Slots == 0 || uint64(pi.Slot)+uint64(pi.Slots) > math.MaxUint32 {
			d.err = true
		}
		if d.err {
			return 0, nil, errDirBody
		}
		pages = append(pages, pi)
	}
	if d.err || len(d.rd) != 0 {
		return 0, nil, errDirBody
	}
	return seq, pages, nil
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

// encodeDirectory frames a directory file: seq, then per page
// slot/extent/sequence/table.
func encodeDirectory(seq uint64, pages []PageInfo) []byte {
	buf := make([]byte, pageFrameHeader, 32+32*len(pages))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(pages)))
	for _, pi := range pages {
		buf = binary.AppendUvarint(buf, uint64(pi.Slot))
		buf = binary.AppendUvarint(buf, uint64(pi.Slots))
		buf = binary.AppendUvarint(buf, pi.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(pi.Table)))
		buf = append(buf, pi.Table...)
	}
	payload := buf[pageFrameHeader:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, pageCRC))
	return buf
}

// Stats returns store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		PagesTotal:   uint64(len(s.pages)),
		SlotsTotal:   uint64(s.heapSlots),
		FreeSlots:    uint64(len(s.free)),
		PagesWritten: s.pagesEver,
	}
}

// Close closes the heap file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.heap.Close()
}

// Install writes the given row sets to fresh copy-on-write pages, then
// durably replaces the directory with the page table that installs them
// and logically frees the superseded slots. On return the heap and
// directory are fsynced. Freed slots are NOT immediately reusable — the
// caller calls Release once no reader can hold a reference to their old
// content.
//
// Each page is written as soon as it is packed, from one reused
// slot-aligned buffer: a pass holds no more of the image than that. The
// heap writes are O(dirty pages); the directory, about 12 bytes a live
// page, is written whole.
//
// Durability order: heap writes + heap fsync happen strictly before the
// directory replace (tmp write + fsync, rename, dir fsync), so a crash
// between the two only orphans fresh slots (recovered as free).
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
		if err := s.fp(FpWrite); err != nil {
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
	// Phase 2: the durable directory — every live page this install
	// leaves, the pages it wrote among them, replacing the old file whole.
	writeDirectory := func() error {
		if err := s.fp(FpDirectory); err != nil {
			return err
		}
		gone := make(map[uint32]bool, len(freed))
		for _, slot := range freed {
			gone[slot] = true
		}
		table := make([]PageInfo, 0, len(s.pages)+len(infos))
		for slot, pe := range s.pages {
			if !gone[slot] {
				table = append(table, PageInfo{Slot: slot, Slots: pe.slots, Seq: pe.seq, Table: pe.table})
			}
		}
		for _, pi := range infos {
			table = append(table, PageInfo{Slot: pi.Slot, Slots: pi.Slots, Seq: pi.Seq, Table: pi.Table})
		}
		sort.Slice(table, func(i, j int) bool { return table[i].Slot < table[j].Slot })
		return ReplaceFile(s.dir, dirFileName, encodeDirectory(seq, table), func() error { return s.fp(FpRename) })
	}
	err := writeAll()
	if err == nil {
		err = writeDirectory()
	}
	if err != nil {
		// A failed install leaks nothing logically: the directory never
		// references the slots it allocated, and they return to the free
		// list (single pages) or stay orphaned until next recovery
		// (extents).
		for _, pi := range infos {
			if pi.Slots == 1 {
				s.free = append(s.free, pi.Slot)
			}
		}
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
	s.pagesEver += uint64(len(infos))
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
