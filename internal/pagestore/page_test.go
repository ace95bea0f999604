package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func TestPageRoundTrip(t *testing.T) {
	rows := []PageRow{
		{ID: 1, Payload: []byte("hello")},
		{ID: 7, Payload: nil},
		{ID: 1 << 40, Payload: bytes.Repeat([]byte{0xab}, 900)},
	}
	frame := encodePage(nil, "users", 42, rows)
	table, seq, got, err := decodePageFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if table != "users" || seq != 42 {
		t.Fatalf("got table=%q seq=%d", table, seq)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].ID != rows[i].ID || !bytes.Equal(got[i].Payload, rows[i].Payload) {
			t.Fatalf("row %d mismatch: %v vs %v", i, got[i], rows[i])
		}
	}
}

func TestPageDecodeRejectsCorruption(t *testing.T) {
	frame := encodePage(nil, "t", 1, []PageRow{{ID: 5, Payload: []byte("x")}})
	if len(frame) != PageSize {
		t.Fatalf("frame is %d bytes, want one padded slot (%d)", len(frame), PageSize)
	}
	// The zero padding up to the slot boundary is outside the frame (and
	// its CRC): only header + payload bytes are flipped.
	frame = frame[:pageFrameHeader+int(binary.LittleEndian.Uint32(frame[0:4]))]
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, _, err := decodePageFrame(bad); err == nil {
			// Flipping a payload bit must fail CRC; flipping the stored
			// CRC or length must fail framing. Every single-bit flip is
			// detectable.
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestFrameSlots(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want uint32
	}{{1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {3 * PageSize, 3}} {
		if got := frameSlots(tc.n); got != tc.want {
			t.Fatalf("frameSlots(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func FuzzPageDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePage(nil, "t", 3, []PageRow{{ID: 1, Payload: []byte("abc")}}))
	f.Add(encodePage(nil, "", 0, nil))
	big := make([]PageRow, 50)
	for i := range big {
		big[i] = PageRow{ID: int64(i), Payload: []byte(fmt.Sprintf("row-%d", i))}
	}
	f.Add(encodePage(nil, "many", 9, big))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must never panic, through either the decoder or
		// the row walk (as a frame payload, and past a frame header).
		table, seq, rows, err := decodePageFrame(data)
		for _, page := range [][]byte{data, data[min(len(data), pageFrameHeader):]} {
			if offs, err := rowOffsets(nil, page); err == nil {
				for _, id := range []int64{0, 1, int64(len(data))} {
					findRow(page, offs, id)
				}
			}
		}
		if err != nil {
			return
		}
		// On a decoded frame the walk finds each row's payload by id —
		// the first row carrying it, as decodePage lists them — and
		// misses every id the page does not hold.
		payload, err := verifyFrame(data)
		if err != nil {
			t.Fatalf("decoded frame fails verification: %v", err)
		}
		offs, err := rowOffsets(nil, payload)
		if err != nil {
			t.Fatalf("decoded frame's rows do not list: %v", err)
		}
		first := map[int64][]byte{}
		for _, r := range rows {
			if _, dup := first[r.ID]; !dup {
				first[r.ID] = r.Payload
			}
		}
		for id, want := range first {
			if got, ok := findRow(payload, offs, id); !ok || !bytes.Equal(got, want) {
				t.Fatalf("row %d: walk found %q (ok=%v), decode %q", id, got, ok, want)
			}
			for _, miss := range []int64{id + 1, id - 1, -id - 1} {
				if _, held := first[miss]; !held {
					if _, ok := findRow(payload, offs, miss); ok {
						t.Fatalf("walk found row %d, which the page does not hold", miss)
					}
				}
			}
		}
		// A successfully decoded frame must re-encode to an equivalent
		// decodable frame (round-trip stability).
		frame2 := encodePage(nil, table, seq, rows)
		t2, s2, rows2, err := decodePageFrame(frame2)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if t2 != table || s2 != seq || len(rows2) != len(rows) {
			t.Fatalf("round-trip mismatch: %q/%d/%d vs %q/%d/%d", t2, s2, len(rows2), table, seq, len(rows))
		}
		for i := range rows {
			if rows2[i].ID != rows[i].ID || !bytes.Equal(rows2[i].Payload, rows[i].Payload) {
				t.Fatalf("row %d mismatch after round-trip", i)
			}
		}
	})
}
