package pagestore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakePool is a pool over a synthetic store: load names the "table" of
// a slot and its frame size; pages carry no rows.
func fakePool(budget int64, load func(slot uint32) (string, int64, error)) *Pool {
	return newPool(budget, func(slot uint32) (string, []PageRow, int64, error) {
		table, size, err := load(slot)
		return table, nil, size, err
	})
}

func TestPoolHitMissEvict(t *testing.T) {
	loads := 0
	p := fakePool(250, func(slot uint32) (string, int64, error) { // room for two 100-byte frames
		loads++
		return fmt.Sprintf("page-%d", slot), 100, nil
	})
	v, _, rel, err := p.Get(1)
	if err != nil || v != "page-1" {
		t.Fatalf("get: %v %v", v, err)
	}
	rel()
	if _, _, rel, _ := p.Get(1); true {
		rel()
	}
	if loads != 1 {
		t.Fatalf("second Get should hit, loads=%d", loads)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Fill past budget: slot 1's ref bit gives it a second chance, so two
	// more distinct pages force an eviction.
	for slot := uint32(2); slot <= 4; slot++ {
		_, _, rel, err := p.Get(slot)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if st := p.Stats(); st.Evictions == 0 || st.Resident > 250 {
		t.Fatalf("no eviction under pressure: %+v", st)
	}
}

func TestPoolPinBlocksEviction(t *testing.T) {
	loads := map[uint32]int{}
	p := fakePool(100, func(slot uint32) (string, int64, error) {
		loads[slot]++
		return fmt.Sprintf("page-%d", slot), 80, nil
	})
	_, _, rel1, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// Load a second frame while the first is pinned: pool goes over
	// budget but must not evict the pinned frame.
	_, _, rel2, err := p.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	got, _, rel, err := p.Get(1)
	if err != nil || got != "page-1" || loads[1] != 1 {
		t.Fatalf("pinned frame lost: %v %v loads=%v", got, err, loads)
	}
	rel()
	rel1()
}

func TestPoolInvalidate(t *testing.T) {
	loads := 0
	p := fakePool(1<<20, func(uint32) (string, int64, error) { loads++; return "x", 10, nil })
	_, _, rel, _ := p.Get(5)
	rel()
	p.Invalidate([]uint32{5})
	_, _, rel, _ = p.Get(5)
	rel()
	if loads != 2 {
		t.Fatalf("invalidate did not drop frame: loads=%d", loads)
	}
	if st := p.Stats(); st.Resident != 10 || st.Frames != 1 {
		t.Fatalf("size accounting broken after invalidate: %+v", st)
	}
}

func TestPoolSingleflight(t *testing.T) {
	var loads atomic.Int32
	p := fakePool(1<<20, func(uint32) (string, int64, error) {
		loads.Add(1)
		return "val", 8, nil
	})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, rel, err := p.Get(9)
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
	p := fakePool(1<<20, func(uint32) (string, int64, error) {
		if calls++; calls == 1 {
			return "", 0, fmt.Errorf("io error")
		}
		return "ok", 4, nil
	})
	if _, _, _, err := p.Get(3); err == nil {
		t.Fatal("expected error")
	}
	v, _, rel, err := p.Get(3)
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
// after every step, that the accounted bytes stay within the budget plus
// the one frame a miss admits before it evicts — and that the account
// equals the sum of the frames actually resident.
func TestPoolResidentWithinBudgetPlusOneFrame(t *testing.T) {
	const budget, slots = 40_000, 97
	size := func(slot uint32) int64 { return 4096*int64(1+slot%3) + 32*int64(slot%61) }
	p := fakePool(budget, func(slot uint32) (string, int64, error) { return "t", size(slot), nil })
	check := func(step int) {
		t.Helper()
		st := p.Stats()
		var sum int64
		for slot := range p.frames {
			sum += size(slot)
		}
		if st.Resident != sum {
			t.Fatalf("step %d: accounted %d bytes, resident frames hold %d", step, st.Resident, sum)
		}
		if st.Resident > budget+size(2) { // slot%3 == 2 is the largest frame
			t.Fatalf("step %d: resident %d exceeds budget %d + one frame", step, st.Resident, budget)
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
			_, _, rel, err := p.Get(slot)
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
}

// TestPoolEvictionStress runs concurrent readers against a tiny frame
// budget so loads, hits, evictions, and invalidations race. Run with
// -race this exercises the eviction-vs-concurrent-reader interleavings.
func TestPoolEvictionStress(t *testing.T) {
	const slots = 64
	const iters = 3000
	p := fakePool(5*100, func(slot uint32) (string, int64, error) { // ~5 frames resident out of 64
		return fmt.Sprintf("content-%d", slot), 100, nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < iters; i++ {
				x = x*1664525 + 1013904223
				slot := x % slots
				v, _, rel, err := p.Get(slot)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if v != fmt.Sprintf("content-%d", slot) {
					t.Errorf("slot %d returned %v", slot, v)
					return
				}
				// Hold the pin briefly on some iterations.
				if i%7 == 0 {
					_ = p.Stats()
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
	st := p.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("stress did nothing: %+v", st)
	}
	if st.Resident > 5*100+4096 {
		t.Fatalf("resident far over budget at rest: %+v", st)
	}
}
