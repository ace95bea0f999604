package pagestore

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakePool is a pool over a synthetic store: load names the table of a
// slot and the whole slots its frame spans. Every byte of a page is
// slotByte(slot), read into the buffer the pool offers when the frame is
// one slot, so a reader can check that what it holds is its own page.
func fakePool(budget int64, load func(slot uint32) (table string, slots int, err error)) *Pool {
	return newPool(budget, func(slot uint32, buf []byte) (string, []byte, []byte, error) {
		table, n, err := load(slot)
		if err != nil {
			return "", nil, nil, err
		}
		if n != 1 || cap(buf) < PageSize {
			buf = make([]byte, n*PageSize)
		}
		buf = buf[:n*PageSize]
		for i := range buf {
			buf[i] = slotByte(slot)
		}
		return table, buf, buf, nil
	})
}

func slotByte(slot uint32) byte { return byte(slot*7 + 1) }

// get pins the page at slot and returns its table name and bytes, valid
// until release: the frame as Row serves it, whatever the bytes hold.
func (p *Pool) get(slot uint32) (table string, page []byte, release func(), err error) {
	f, err := p.pin(slot)
	if err != nil {
		return "", nil, nil, err
	}
	return f.table, f.page, f.release, nil
}

// frameSize is what a fake frame is charged: its slots plus its name.
func frameSize(table string, slots int) int64 { return int64(slots)*PageSize + int64(len(table)) }

func TestPoolHitMissEvict(t *testing.T) {
	loads := 0
	p := fakePool(2*frameSize("page-0", 1)+50, func(slot uint32) (string, int, error) { // room for two frames
		loads++
		return fmt.Sprintf("page-%d", slot), 1, nil
	})
	v, _, rel, err := p.get(1)
	if err != nil || v != "page-1" {
		t.Fatalf("get: %v %v", v, err)
	}
	rel()
	if _, _, rel, _ := p.get(1); true {
		rel()
	}
	if loads != 1 {
		t.Fatalf("second Get should hit, loads=%d", loads)
	}
	st := p.state()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Fill past budget: slot 1's ref bit gives it a second chance, so two
	// more distinct pages force an eviction.
	for slot := uint32(2); slot <= 4; slot++ {
		_, _, rel, err := p.get(slot)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if st := p.state(); st.Evictions == 0 || st.Resident > 2*frameSize("page-0", 1)+50 {
		t.Fatalf("no eviction under pressure: %+v", st)
	}
}

func TestPoolPinBlocksEviction(t *testing.T) {
	loads := map[uint32]int{}
	p := fakePool(frameSize("page-0", 1)+10, func(slot uint32) (string, int, error) {
		loads[slot]++
		return fmt.Sprintf("page-%d", slot), 1, nil
	})
	_, page1, rel1, err := p.get(1)
	if err != nil {
		t.Fatal(err)
	}
	// Load a second frame while the first is pinned: pool goes over
	// budget but must not evict the pinned frame, nor hand its buffer to
	// the second load.
	_, _, rel2, err := p.get(2)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	got, _, rel, err := p.get(1)
	if err != nil || got != "page-1" || loads[1] != 1 {
		t.Fatalf("pinned frame lost: %v %v loads=%v", got, err, loads)
	}
	rel()
	if page1[0] != slotByte(1) || page1[PageSize-1] != slotByte(1) {
		t.Fatal("a pinned frame's bytes were overwritten")
	}
	rel1()
}

func TestPoolInvalidate(t *testing.T) {
	loads := 0
	p := fakePool(1<<20, func(uint32) (string, int, error) { loads++; return "x", 1, nil })
	_, _, rel, _ := p.get(5)
	rel()
	p.Invalidate([]uint32{5})
	if st := p.state(); st.Resident != 0 || st.Free != PageSize {
		t.Fatalf("an unpinned invalidated frame did not hand its buffer to the free list: %+v", st)
	}
	_, _, rel, _ = p.get(5)
	rel()
	if loads != 2 {
		t.Fatalf("invalidate did not drop frame: loads=%d", loads)
	}
	if st := p.state(); st.Resident != frameSize("x", 1) || st.Frames != 1 || st.Free != 0 {
		t.Fatalf("size accounting broken after invalidate: %+v", st)
	}
}

// TestPoolInvalidatedFrameRecycledAtLastUnpin: invalidating a pinned
// frame leaves its bytes to the holder; the buffer is recycled only when
// the last pin drops.
func TestPoolInvalidatedFrameRecycledAtLastUnpin(t *testing.T) {
	p := fakePool(1<<20, func(uint32) (string, int, error) { return "x", 1, nil })
	_, page, rel1, _ := p.get(3)
	_, _, rel2, _ := p.get(3)
	p.Invalidate([]uint32{3})
	_, _, rel, _ := p.get(4) // a miss: must not read into slot 3's buffer
	rel()
	if page[0] != slotByte(3) {
		t.Fatal("a pinned invalidated frame's buffer served another miss")
	}
	rel1()
	if st := p.state(); st.Free != 0 {
		t.Fatalf("recycled with a pin outstanding: %+v", st)
	}
	rel2()
	if st := p.state(); st.Free != PageSize {
		t.Fatalf("not recycled at the last unpin: %+v", st)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := fakePool(1<<20, func(uint32) (string, int, error) { return "x", 1, nil })
	_, _, rel, _ := p.get(1)
	rel()
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
	}()
	rel()
}

func TestPoolSingleflight(t *testing.T) {
	var loads atomic.Int32
	p := fakePool(1<<20, func(uint32) (string, int, error) {
		loads.Add(1)
		return "val", 1, nil
	})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, rel, err := p.get(9)
			if err != nil || v != "val" {
				t.Errorf("get: %v %v", v, err)
				return
			}
			rel()
		}()
	}
	close(start)
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("concurrent misses not coalesced: %d loads", loads.Load())
	}
}

func TestPoolLoadErrorNotCached(t *testing.T) {
	calls := 0
	p := fakePool(1<<20, func(uint32) (string, int, error) {
		if calls++; calls == 1 {
			return "", 0, fmt.Errorf("io error")
		}
		return "ok", 1, nil
	})
	if _, _, _, err := p.get(3); err == nil {
		t.Fatal("expected error")
	}
	v, _, rel, err := p.get(3)
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: %v %v", v, err)
	}
	rel()
	if calls != 2 {
		t.Fatalf("error cached: calls=%d", calls)
	}
}

// TestPoolResidentWithinBudgetPlusOneFrame churns Gets (some held across
// the next few) and Invalidates over frames of uneven size and checks,
// after every step, that the accounted bytes plus the free list stay
// within the budget plus the one frame a miss admits before it evicts —
// and that the account equals the sum of the frames actually resident.
func TestPoolResidentWithinBudgetPlusOneFrame(t *testing.T) {
	const budget, slots = 40_000, 97
	name := func(slot uint32) string { return strings.Repeat("t", int(slot%61)) }
	span := func(slot uint32) int { return 1 + int(slot%3) }
	size := func(slot uint32) int64 { return frameSize(name(slot), span(slot)) }
	p := fakePool(budget, func(slot uint32) (string, int, error) { return name(slot), span(slot), nil })
	largest := frameSize(strings.Repeat("t", 60), 3)
	check := func(step int) {
		t.Helper()
		st := p.state()
		var sum int64
		for slot := range p.frames {
			sum += size(slot)
		}
		if st.Resident != sum {
			t.Fatalf("step %d: accounted %d bytes, resident frames hold %d", step, st.Resident, sum)
		}
		if st.Resident+st.Free > budget+largest {
			t.Fatalf("step %d: resident %d + free %d exceeds budget %d + one frame", step, st.Resident, st.Free, budget)
		}
	}
	var held []func()
	x := uint32(7)
	for step := 0; step < 20000; step++ {
		x = x*1664525 + 1013904223
		switch slot := (x >> 8) % slots; {
		case x%11 == 0:
			p.Invalidate([]uint32{slot, (slot + 1) % slots})
		default:
			_, _, rel, err := p.get(slot)
			if err != nil {
				t.Fatal(err)
			}
			if held = append(held, rel); len(held) > int(x%3) {
				for _, r := range held {
					r()
				}
				held = held[:0]
			}
		}
		check(step)
	}
	if st := p.state(); st.Evictions == 0 || st.Free == 0 {
		t.Fatalf("the churn never recycled a buffer: %+v", st)
	}
}

// TestPoolEvictionStress runs concurrent readers against a tiny frame
// budget so loads, hits, evictions, invalidations and buffer recycling
// race. Every reader checks its page's bytes while it holds the pin,
// before and after yielding: two frames sharing one recycled buffer show
// up as a page holding another slot's bytes. Run with -race this
// exercises the eviction-vs-concurrent-reader interleavings.
func TestPoolEvictionStress(t *testing.T) {
	const slots = 64
	const iters = 3000
	budget := 5 * frameSize("content-00", 1) // ~5 frames resident out of 64
	p := fakePool(budget, func(slot uint32) (string, int, error) {
		return fmt.Sprintf("content-%d", slot), 1, nil
	})
	intact := func(page []byte, slot uint32) bool {
		for _, b := range page {
			if b != slotByte(slot) {
				return false
			}
		}
		return len(page) == PageSize
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < iters; i++ {
				x = x*1664525 + 1013904223
				slot := x % slots
				v, page, rel, err := p.get(slot)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if v != fmt.Sprintf("content-%d", slot) || !intact(page, slot) {
					t.Errorf("slot %d returned %v / a foreign page", slot, v)
					return
				}
				// Hold the pin across a yield on some iterations.
				if i%7 == 0 {
					_ = p.state()
					runtime.Gosched()
					if !intact(page, slot) {
						t.Errorf("slot %d: bytes changed under a pin", slot)
						return
					}
				}
				rel()
			}
		}(uint32(w))
	}
	// Concurrent invalidations, as a checkpoint would issue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := uint32(99)
		for i := 0; i < 2*iters; i++ {
			x = x*1664525 + 1013904223
			p.Invalidate([]uint32{x % slots})
		}
	}()
	wg.Wait()
	st := p.state()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("stress did nothing: %+v", st)
	}
	if st.Resident+st.Free > budget+frameSize("content-00", 1) {
		t.Fatalf("resident + free over budget + one frame at rest: %+v", st)
	}
}

// TestPoolMissReusesBuffer is the pool's allocation ceiling: once the
// pool is full, a miss reads into the buffer the evicted frame handed
// back, so it allocates the frame's bookkeeping (frame, release func,
// ready channel, table name) and no page buffer. Measured on a real
// store with 40-row pages: 4 allocations and 314 bytes per miss (266
// before the frame carried its row offsets; −race included); a fresh 4 KiB buffer plus a 32-byte row header per
// row cost 6 allocations and about 5.7 KiB.
func TestPoolMissReusesBuffer(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), OS)
	defer s.Close()
	const pages = 24
	installs := make([]Install, pages)
	for i := range installs {
		rows := make([]InstallRow, 40) // ~3 KiB: one page each
		for j := range rows {
			rows[j] = InstallRow{ID: int64(i*100 + j), Payload: []byte(strings.Repeat("p", 70))}
		}
		installs[i] = Install{Table: fmt.Sprintf("t%d", i%3), Rows: rows}
	}
	placed, err := s.Install(1, installs, nil)
	if err != nil || len(placed) != pages {
		t.Fatalf("install: %v, %d pages", err, len(placed))
	}
	p := NewPool(s, 4*PageSize) // four frames; a cyclic scan of 24 misses every time
	next := 0
	miss := func() {
		pi := placed[next%pages]
		next++
		_, payload, rel, err := p.Row(pi.Slot, pi.Rows[len(pi.Rows)-1])
		if err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			t.Fatalf("slot %d: last row missing", pi.Slot)
		}
		rel()
	}
	for range 2 * pages {
		miss() // fill the pool and the free list
	}
	before := p.state()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, miss)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		miss()
	}
	runtime.ReadMemStats(&m1)
	after := p.state()
	if got := after.Misses - before.Misses; got != 2*runs+1 || after.Hits != before.Hits {
		t.Fatalf("the cyclic scan did not miss every time: %d misses, %d hits", got, after.Hits-before.Hits)
	}
	const maxAllocs, maxBytes = 4, 384
	bytesPerMiss := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if allocs > maxAllocs || bytesPerMiss > maxBytes {
		t.Fatalf("a steady-state miss allocates %v times, %d bytes; ceiling %d and %d (a page buffer is %d)",
			allocs, bytesPerMiss, maxAllocs, maxBytes, PageSize)
	}
	t.Logf("steady-state miss: %v allocs, %d bytes", allocs, bytesPerMiss)
}

// poolState is the pool's counters plus its byte accounting.
type poolState struct {
	PoolStats
	Resident int64 // bytes charged to cached frames
	Frames   int   // pages currently cached
	Free     int64 // bytes held by free buffers awaiting the next miss
}

func (p *Pool) state() poolState {
	st := poolState{PoolStats: p.Stats()}
	p.mu.Lock()
	st.Resident, st.Frames, st.Free = p.size, len(p.frames), p.freeBytesLocked()
	p.mu.Unlock()
	return st
}
