package pagestore

import (
	"sync"
	"sync/atomic"
)

// Pool is a byte-budgeted buffer pool of pages keyed by heap slot, with
// CLOCK (second-chance) eviction and pin/unpin refcounts. A frame is a
// page's CRC-verified bytes plus its table name; no row is decoded
// here. Row finds one row's bytes by a binary search of the page's row
// offsets, which the frame lists on the first Row it serves (one walk
// of the page). A frame is charged for its whole slots and the name;
// the offsets (4 B a row), like the frame's other bookkeeping, are not.
//
// A frame's bytes are valid only while it is pinned. When a frame is
// evicted, or an invalidated frame loses its last pin, its one-slot
// buffer joins a free list that the next miss reads into (multi-slot
// extents are left to the collector). Callers therefore copy out what
// they need before they release. Free buffers count against the budget:
// resident plus free bytes stay within the budget plus one frame.
type Pool struct {
	budget int64
	load   func(slot uint32, buf []byte) (table string, page, extent []byte, err error)

	mu     sync.Mutex
	frames map[uint32]*poolFrame
	ring   []uint32 // CLOCK ring of resident slots
	hand   int
	size   int64     // bytes charged to resident frames
	free   []freeBuf // one-slot buffers of evicted frames, for the next miss

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// freeBuf is what an evicted one-slot frame hands the next miss: its
// page buffer and its row offsets' backing array.
type freeBuf struct {
	page []byte
	rows []uint32
}

type poolFrame struct {
	table   string
	page    []byte // the CRC-verified payload, aliasing extent
	extent  []byte // the buffer as read: whole slots
	size    int64
	release func() // unpins; built once per frame so a hit allocates nothing
	pins    int
	ref     bool // CLOCK reference bit
	loaded  bool
	gone    bool // invalidated: no longer in the map, recycled at its last unpin
	err     error
	ready   chan struct{}

	rowsOnce sync.Once
	rows     []uint32 // rowOffsets of page, listed by the first Row (a recycled array until then)
	rowsErr  error
}

// NewPool builds a pool over store's pages with the given byte budget.
// A budget <= 0 means a single-frame pool (every miss evicts the
// previous page): the smallest configuration that still serves faults.
func NewPool(store *Store, budget int64) *Pool {
	return newPool(budget, store.readFrame)
}

func newPool(budget int64, load func(uint32, []byte) (string, []byte, []byte, error)) *Pool {
	return &Pool{budget: budget, load: load, frames: make(map[uint32]*poolFrame)}
}

// PoolStats is a point-in-time snapshot of pool counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
}

// Row pins the page at slot, reading it from the store on a miss (into
// a free buffer when there is one; concurrent misses on the same slot
// are coalesced: one caller loads, the rest wait), and returns its table
// and the payload of the row with the given id, found by a binary search
// of the frame's row offsets. The payload aliases the frame: it is valid
// only until release unpins it, which must be called exactly once — a
// second call panics, since the buffer may already serve another page. A
// page holding no such row returns a nil payload and a nil release, the
// frame already unpinned.
func (p *Pool) Row(slot uint32, id int64) (table string, payload []byte, release func(), err error) {
	f, err := p.pin(slot)
	if err != nil {
		return "", nil, nil, err
	}
	f.rowsOnce.Do(func() { f.rows, f.rowsErr = rowOffsets(f.rows, f.page) })
	if f.rowsErr != nil {
		f.release()
		return "", nil, nil, f.rowsErr
	}
	payload, ok := findRow(f.page, f.rows, id)
	if !ok {
		f.release()
		return f.table, nil, nil, nil
	}
	return f.table, payload, f.release, nil
}

// pin returns the loaded frame of slot, pinned once for the caller:
// released by its release func.
func (p *Pool) pin(slot uint32) (*poolFrame, error) {
	for {
		p.mu.Lock()
		f := p.frames[slot]
		if f == nil {
			f = &poolFrame{pins: 1, ready: make(chan struct{})}
			f.release = func() { p.unpin(f) }
			p.frames[slot] = f
			var buf []byte
			if n := len(p.free); n > 0 {
				buf, f.rows = p.free[n-1].page, p.free[n-1].rows
				p.free[n-1] = freeBuf{}
				p.free = p.free[:n-1]
			}
			p.mu.Unlock()

			table, page, extent, err := p.load(slot, buf)

			p.mu.Lock()
			if err != nil {
				f.err = err
				if p.frames[slot] == f {
					delete(p.frames, slot)
				}
				close(f.ready)
				p.mu.Unlock()
				return nil, err
			}
			f.table, f.page, f.extent, f.loaded = table, page, extent, true
			f.size = int64(frameSlots(len(extent)))*PageSize + int64(len(table))
			p.misses.Add(1)
			if !f.gone { // else invalidated mid-load: serve this caller, cache nothing
				p.size += f.size
				p.ring = append(p.ring, slot)
				f.ref = true
			}
			close(f.ready)
			p.evictLocked()
			p.mu.Unlock()
			return f, nil
		}
		if !f.loaded && f.err == nil {
			ready := f.ready
			p.mu.Unlock()
			<-ready
			continue // reinspect: the load may have failed or been invalidated
		}
		if f.err != nil || f.gone {
			p.mu.Unlock()
			continue
		}
		f.pins++
		f.ref = true
		p.hits.Add(1)
		p.mu.Unlock()
		return f, nil
	}
}

// unpin is a frame's release: the last unpin of an invalidated frame
// recycles its buffer.
func (p *Pool) unpin(f *poolFrame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins--; f.pins < 0 {
		panic("pagestore: pool frame released more times than it was pinned")
	}
	if f.pins == 0 && f.gone {
		p.recycleLocked(f)
	}
	p.evictLocked()
}

// Invalidate drops the given slots from the pool (used when a checkpoint
// frees the pages they cache). Pinned frames are dropped from the map —
// current holders keep their bytes until they release — and their
// buffers are recycled at the last unpin.
func (p *Pool) Invalidate(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	p.mu.Lock()
	for _, s := range slots {
		f := p.frames[s]
		if f == nil {
			continue
		}
		delete(p.frames, s)
		if f.loaded && !f.gone {
			p.size -= f.size
		}
		f.gone = true
		if f.loaded && f.pins == 0 {
			p.recycleLocked(f)
		}
	}
	p.compactRingLocked()
	p.evictLocked()
	p.mu.Unlock()
}

// recycleLocked moves an unpinned frame's buffer, with its row offsets'
// array, to the free list when it is one slot; the frame keeps no
// reference to either. Requires p.mu held.
func (p *Pool) recycleLocked(f *poolFrame) {
	buf, rows := f.extent, f.rows[:0]
	f.page, f.extent, f.rows = nil, nil, nil
	if len(buf) == PageSize {
		p.free = append(p.free, freeBuf{buf, rows})
	}
}

func (p *Pool) freeBytesLocked() int64 { return int64(len(p.free)) * PageSize }

// evictLocked advances the CLOCK hand until the resident frames are
// within budget, skipping pinned frames and recycling the victims'
// buffers, then trims the free list so resident plus free bytes stay
// within the budget plus one slot. Requires p.mu held.
func (p *Pool) evictLocked() {
	// Bound the sweep: with every frame pinned or referenced we make at
	// most two full revolutions before giving up (over budget but safe).
	for spins := 0; p.size > p.budget && len(p.ring) > 0 && spins < 2*len(p.ring); spins++ {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		slot := p.ring[p.hand]
		f := p.frames[slot]
		if f == nil || f.gone || !f.loaded {
			// Stale ring entry (invalidated): drop it in place.
			p.ring[p.hand] = p.ring[len(p.ring)-1]
			p.ring = p.ring[:len(p.ring)-1]
			continue
		}
		if f.pins > 0 {
			p.hand++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			continue
		}
		delete(p.frames, slot)
		p.size -= f.size
		p.recycleLocked(f)
		p.evictions.Add(1)
		p.ring[p.hand] = p.ring[len(p.ring)-1]
		p.ring = p.ring[:len(p.ring)-1]
	}
	for n := len(p.free); n > 0 && p.size+p.freeBytesLocked() > p.budget+PageSize; n-- {
		p.free[n-1] = freeBuf{}
		p.free = p.free[:n-1]
	}
}

// compactRingLocked removes ring entries whose frames are gone.
func (p *Pool) compactRingLocked() {
	out := p.ring[:0]
	for _, s := range p.ring {
		if f := p.frames[s]; f != nil && f.loaded && !f.gone {
			out = append(out, s)
		}
	}
	p.ring = out
	if p.hand > len(p.ring) {
		p.hand = 0
	}
}
