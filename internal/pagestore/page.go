// Package pagestore implements a copy-on-write slotted-page heap file
// with a page directory rewritten whole at every install, and a
// byte-budgeted buffer pool.
//
// Pages are written once and never patched in place: a checkpoint packs
// row images into fresh pages, installs them by replacing the directory
// file, and logically frees the pages they supersede. Because the heap
// is write-once, compaction touches only the pages that contain dirty
// rows, and a page published by the directory is the one record of
// which rows it holds: the directory maps slots to pages (extent,
// sequence, table), never rows, and whoever needs the rows reads the
// page.
//
// Durability contract (in order): page frames are written and fsynced to
// the heap BEFORE the directory that references them replaces the old
// one (tmp file fsynced, renamed, parent directory fsynced). A crash
// therefore leaves the old directory or the new one whole, and at worst
// orphans heap slots, which recovery reclassifies as free; a directory
// that fails its CRC is corruption, never a torn tail. Physically
// reusing a freed slot is the caller's responsibility to defer until no
// reader can still hold a reference to the old content (see
// Store.Release).
package pagestore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

const (
	// PageSize is the fixed slot size of the heap file. A row set whose
	// encoded payload exceeds one slot occupies a multi-slot extent.
	PageSize = 4096

	// pageFrameHeader is [payloadLen uint32][crc32 uint32], little endian,
	// matching the WAL frame discipline.
	pageFrameHeader = 8

	// maxPagePayload bounds a single page/extent payload. Generous: a row
	// larger than this cannot be stored.
	maxPagePayload = 1 << 28
)

var (
	// ErrCorruptPage reports a CRC or structural failure decoding a page.
	ErrCorruptPage = errors.New("pagestore: corrupt page")
	// ErrCorruptDirectory reports a directory file that fails its CRC or
	// does not decode, or maps pages the heap cannot hold.
	ErrCorruptDirectory = errors.New("pagestore: corrupt directory")
)

var pageCRC = crc32.MakeTable(crc32.Castagnoli)

// PageRow is one row image stored in a page: the row id plus its opaque
// encoded payload (the caller owns the value encoding).
type PageRow struct {
	ID      int64
	Payload []byte
}

// encodePage builds one page's on-disk image in dst's storage (grown
// when too small): the frame (header + payload) for rows of a single
// table, zero-padded to a whole number of heap slots so it is written as
// it is returned. seq is the checkpoint sequence that wrote it. The page
// self-describes (table name + row ids): it is where recovery learns
// its rows, and a stale read of a reused slot is detectable by the
// caller.
func encodePage(dst []byte, table string, seq uint64, rows []PageRow) []byte {
	var hdr [pageFrameHeader]byte
	buf := append(dst[:0], hdr[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = binary.AppendUvarint(buf, uint64(r.ID))
		buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	payload := buf[pageFrameHeader:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, pageCRC))
	return append(buf, zeroPage[:int(frameSlots(len(buf)))*PageSize-len(buf)]...)
}

// zeroPage pads a frame to its slot boundary (always less than a slot).
var zeroPage [PageSize]byte

// frameSlots reports how many heap slots a frame of len(frame) bytes
// occupies.
func frameSlots(frameLen int) uint32 {
	return uint32((frameLen + PageSize - 1) / PageSize)
}

// pageHeader parses the header of a page payload: the table name
// (aliasing payload), the sequence, the row count, and the row section
// that follows. It never panics on arbitrary input.
func pageHeader(payload []byte) (table []byte, seq, nrows uint64, rows []byte, err error) {
	rd := payload
	tl, n := binary.Uvarint(rd)
	if n <= 0 || tl > uint64(len(rd)-n) {
		return nil, 0, 0, nil, fmt.Errorf("%w: bad table length", ErrCorruptPage)
	}
	rd = rd[n:]
	table, rd = rd[:tl], rd[tl:]
	seq, n = binary.Uvarint(rd)
	if n <= 0 {
		return nil, 0, 0, nil, fmt.Errorf("%w: bad seq", ErrCorruptPage)
	}
	rd = rd[n:]
	nrows, n = binary.Uvarint(rd)
	if n <= 0 || nrows > uint64(len(rd)) {
		return nil, 0, 0, nil, fmt.Errorf("%w: bad row count", ErrCorruptPage)
	}
	return table, seq, nrows, rd[n:], nil
}

// nextRow splits the first row off a page's row section: its id, its
// payload (aliasing rd) and the rest of the section.
func nextRow(rd []byte) (id uint64, payload, rest []byte, err error) {
	id, n := binary.Uvarint(rd)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("%w: bad row id", ErrCorruptPage)
	}
	rd = rd[n:]
	pl, n := binary.Uvarint(rd)
	if n <= 0 || pl > uint64(len(rd)-n) {
		return 0, nil, nil, fmt.Errorf("%w: bad row payload length", ErrCorruptPage)
	}
	rd = rd[n:]
	return id, rd[:pl:pl], rd[pl:], nil
}

// decodePage parses a page payload (the bytes after the frame header,
// CRC already verified) into its rows. It never panics on arbitrary
// input.
func decodePage(payload []byte) (table string, seq uint64, rows []PageRow, err error) {
	name, seq, nrows, rd, err := pageHeader(payload)
	if err != nil {
		return "", 0, nil, err
	}
	rows = make([]PageRow, 0, nrows)
	for ; nrows > 0; nrows-- {
		id, pl, rest, err := nextRow(rd)
		if err != nil {
			return "", 0, nil, err
		}
		rows = append(rows, PageRow{ID: int64(id), Payload: pl})
		rd = rest
	}
	return string(name), seq, rows, nil
}

// rowOffsets lists where each row of a page payload (the CRC-verified
// bytes a pool frame holds) starts, ordered by row id for findRow's
// binary search, into dst's backing array: page order when the page is
// in id order, as a checkpoint writes it, else a stable sort, so the
// first row carrying a repeated id leads. It walks the page once and
// decodes no payload; it never panics on arbitrary input.
func rowOffsets(dst []uint32, page []byte) ([]uint32, error) {
	_, _, nrows, rd, err := pageHeader(page)
	if err != nil {
		return nil, err
	}
	offs := slices.Grow(dst[:0], int(nrows))
	sorted := true
	var last uint64
	for ; nrows > 0; nrows-- {
		id, _, rest, err := nextRow(rd)
		if err != nil {
			return nil, err
		}
		sorted = sorted && (len(offs) == 0 || id >= last)
		last = id
		offs = append(offs, uint32(len(page)-len(rd)))
		rd = rest
	}
	if !sorted {
		slices.SortStableFunc(offs, func(a, b uint32) int { return cmp.Compare(rowIDAt(page, a), rowIDAt(page, b)) })
	}
	return offs, nil
}

// rowIDAt is the id of the row whose entry starts at off, an offset
// rowOffsets vetted.
func rowIDAt(page []byte, off uint32) uint64 {
	id, _ := binary.Uvarint(page[off:])
	return id
}

// findRow returns the payload of the first row of page carrying id,
// aliasing page, by a binary search of the page's rowOffsets. No other
// row is decoded.
func findRow(page []byte, offs []uint32, id int64) (payload []byte, ok bool) {
	i, found := slices.BinarySearchFunc(offs, uint64(id), func(off uint32, id uint64) int {
		return cmp.Compare(rowIDAt(page, off), id)
	})
	if !found {
		return nil, false
	}
	_, payload, _, _ = nextRow(page[offs[i]:])
	return payload, true
}

// verifyFrame checks the frame header + CRC of buf (which must start at
// a slot boundary and contain the whole frame) and returns its payload,
// aliasing buf.
func verifyFrame(buf []byte) ([]byte, error) {
	if len(buf) < pageFrameHeader {
		return nil, fmt.Errorf("%w: short frame", ErrCorruptPage)
	}
	plen := binary.LittleEndian.Uint32(buf[0:4])
	if plen > maxPagePayload || int(plen) > len(buf)-pageFrameHeader {
		return nil, fmt.Errorf("%w: bad frame length %d", ErrCorruptPage, plen)
	}
	payload := buf[pageFrameHeader : pageFrameHeader+int(plen)]
	if crc32.Checksum(payload, pageCRC) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorruptPage)
	}
	return payload, nil
}

// decodePageFrame verifies a frame (verifyFrame) and decodes its rows.
func decodePageFrame(buf []byte) (table string, seq uint64, rows []PageRow, err error) {
	payload, err := verifyFrame(buf)
	if err != nil {
		return "", 0, nil, err
	}
	return decodePage(payload)
}
