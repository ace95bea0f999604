package pagestore

import (
	"sync"
	"sync/atomic"
)

// Pool is a byte-budgeted buffer pool of page images keyed by heap slot,
// with CLOCK (second-chance) eviction and pin/unpin refcounts. A frame
// is a page as read: its table name and row payloads, all aliasing the
// one CRC-verified buffer. Nothing is decoded here — the caller decodes
// the row it wants on each access. Frames are immutable and never
// recycled, so what Get hands out stays valid after eviction.
type Pool struct {
	budget int64
	load   func(slot uint32) (table string, rows []PageRow, size int64, err error)

	mu     sync.Mutex
	frames map[uint32]*poolFrame
	ring   []uint32 // CLOCK ring of resident slots
	hand   int
	size   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type poolFrame struct {
	table   string
	rows    []PageRow
	size    int64
	release func() // unpins; built once per frame so a hit allocates nothing
	pins    int
	ref     bool // CLOCK reference bit
	loaded  bool
	gone    bool // invalidated while loading
	err     error
	ready   chan struct{}
}

// NewPool builds a pool over store's pages with the given byte budget.
// A budget <= 0 means a single-frame pool (every miss evicts the
// previous page): the smallest configuration that still serves faults.
func NewPool(store *Store, budget int64) *Pool {
	return newPool(budget, store.readFrame)
}

func newPool(budget int64, load func(uint32) (string, []PageRow, int64, error)) *Pool {
	return &Pool{budget: budget, load: load, frames: make(map[uint32]*poolFrame)}
}

// PoolStats is a point-in-time snapshot of pool counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Resident  int64 // bytes currently cached
	Frames    int   // pages currently cached
}

// Stats returns the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	resident, frames := p.size, len(p.frames)
	p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Resident:  resident,
		Frames:    frames,
	}
}

// Get returns the page image at slot, reading it from the store on a
// miss. Concurrent misses on the same slot are coalesced: one caller
// loads, the rest wait. The returned release func unpins the frame; it
// must be called exactly once (the rows stay usable afterwards).
func (p *Pool) Get(slot uint32) (table string, rows []PageRow, release func(), err error) {
	for {
		p.mu.Lock()
		f := p.frames[slot]
		if f == nil {
			f = &poolFrame{pins: 1, ready: make(chan struct{})}
			f.release = func() {
				p.mu.Lock()
				f.pins--
				p.evictLocked()
				p.mu.Unlock()
			}
			p.frames[slot] = f
			p.mu.Unlock()

			table, rows, size, err := p.load(slot)

			p.mu.Lock()
			if err != nil {
				f.err = err
				if p.frames[slot] == f {
					delete(p.frames, slot)
				}
				close(f.ready)
				p.mu.Unlock()
				return "", nil, nil, err
			}
			f.table, f.rows, f.size, f.loaded = table, rows, size, true
			p.misses.Add(1)
			if !f.gone { // else invalidated mid-load: serve this caller, cache nothing
				p.size += size
				p.ring = append(p.ring, slot)
				f.ref = true
			}
			close(f.ready)
			p.evictLocked()
			p.mu.Unlock()
			return table, rows, f.release, nil
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
		return f.table, f.rows, f.release, nil
	}
}

// Invalidate drops the given slots from the pool (used when a checkpoint
// frees the pages they cache). Pinned frames are dropped from the map —
// current holders keep their values — and their size is released when
// unpinned via the frame's gone flag.
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
	}
	p.compactRingLocked()
	p.mu.Unlock()
}

// evictLocked advances the CLOCK hand until the pool is within budget,
// skipping pinned frames. Requires p.mu held.
func (p *Pool) evictLocked() {
	if p.size <= p.budget || len(p.ring) == 0 {
		return
	}
	// Bound the sweep: with every frame pinned or referenced we make at
	// most two full revolutions before giving up (over budget but safe).
	for spins := 0; p.size > p.budget && spins < 2*len(p.ring); spins++ {
		if len(p.ring) == 0 {
			return
		}
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
		p.evictions.Add(1)
		p.ring[p.hand] = p.ring[len(p.ring)-1]
		p.ring = p.ring[:len(p.ring)-1]
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
