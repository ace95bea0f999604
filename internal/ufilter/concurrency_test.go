package ufilter

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bookdb"
)

// TestConcurrentCheckRace is the race-detector regression test demanded
// by the concurrency contract: N goroutines hammer Check on one shared
// filter with a mix of cached and uncached updates (repeated texts,
// repeated templates with fresh literals, and never-seen templates),
// and every goroutine validates its verdicts against a precomputed
// single-threaded oracle. Run with -race.
func TestConcurrentCheckRace(t *testing.T) {
	f := newFilter(t, StrategyHybrid)

	// The workload: the paper corpus (repeated texts), title
	// templates with rotating literals (template hits), and price
	// templates with rotating literals (literal-sensitive entries).
	var texts []string
	texts = append(texts, allBookUpdates()...)
	for i := 0; i < 8; i++ {
		texts = append(texts, deleteReviewsByTitle(fmt.Sprintf("Title %d", i)))
		texts = append(texts, deleteBooksOverPrice(fmt.Sprintf("%d.00", 41+i)))
	}

	// Single-threaded reference: each text compiled into its own plan
	// on an identical filter, outside the plan cache.
	oracle := newFilter(t, StrategyHybrid)
	type verdict struct {
		accepted bool
		outcome  Outcome
		reason   string
	}
	want := make(map[string]verdict, len(texts))
	for _, text := range texts {
		res, err := compiledVerdict(oracle, text)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		want[text] = verdict{res.Accepted, res.Outcome, res.Reason}
	}

	const goroutines = 16
	const iterations = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				text := texts[(g*7+i)%len(texts)]
				res, err := f.Check(context.Background(), text)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				w := want[text]
				if res.Accepted != w.accepted || res.Outcome != w.outcome || res.Reason != w.reason {
					errs <- fmt.Errorf("goroutine %d: %q got (%v,%s,%q), want (%v,%s,%q)",
						g, text, res.Accepted, res.Outcome, res.Reason, w.accepted, w.outcome, w.reason)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := f.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("workload should mix cached and uncached checks, stats %+v", st)
	}
	if total := st.Hits + st.Misses; total != goroutines*iterations {
		t.Errorf("hits+misses = %d, want %d", total, goroutines*iterations)
	}
}

// TestConcurrentCheckBatchRace drives CheckBatch itself from several
// goroutines at once (pools sharing one cache).
func TestConcurrentCheckBatchRace(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	batch := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		batch = append(batch, deleteReviewsByTitle(fmt.Sprintf("Book %d", i%5)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, br := range f.CheckBatch(batch, 4) {
				if br.Err != nil {
					t.Errorf("batch error: %v", br.Err)
					return
				}
				if !br.Result.Accepted {
					t.Errorf("unexpected rejection: %s", br.Result.Reason)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentCheckWithApply exercises the documented contract that
// schema-level Checks may run concurrently with the (internally
// serialized) Apply pipeline: writers push review inserts and deletes
// through Apply while readers classify updates.
func TestConcurrentCheckWithApply(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})

	// Readers: schema-only checks, no base-data access.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Check(context.Background(), deleteBooksOverPrice(fmt.Sprintf("%d.00", 41+(g+i)%8))); err != nil {
					t.Errorf("check: %v", err)
					return
				}
			}
		}(g)
	}

	// Writers: full pipeline, serialized by the filter itself. The
	// same insert/delete pair restores the database each round.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 10; i++ {
				ins := fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT
    <review>
      <reviewid>90%d%d</reviewid>
      <comment> concurrent </comment>
    </review>
}`, w, i)
				if _, err := f.Apply(context.Background(), ins); err != nil {
					t.Errorf("apply insert: %v", err)
					return
				}
				if _, err := f.Apply(context.Background(), bookdb.U12); err != nil {
					t.Errorf("apply delete: %v", err)
					return
				}
			}
		}(w)
	}

	// Readers run for the writers' whole lifetime, then drain.
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestStatsDuringApplyRace is the race-detector regression for the
// "statistics reads never race a writer" contract: Check traffic and
// Stats snapshots (which read the engine's commit and executor
// counters) run while Apply is committing transactions.
func TestStatsDuringApplyRace(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Check(context.Background(), deleteReviewsByTitle(fmt.Sprintf("Stats %d", (g+i)%6))); err != nil {
					t.Errorf("check: %v", err)
					return
				}
				st := f.Stats()
				if st.Database.GroupCommits < 0 || st.Database.GroupedTxns < 0 {
					t.Errorf("implausible snapshot: %+v", st.Database)
					return
				}
			}
		}(g)
	}

	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			ins := fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT
    <review>
      <reviewid>81%02d</reviewid>
      <comment> stats race </comment>
    </review>
}`, i)
			if _, err := f.Apply(context.Background(), ins); err != nil {
				t.Errorf("apply insert: %v", err)
				return
			}
			if _, err := f.Apply(context.Background(), bookdb.U12); err != nil {
				t.Errorf("apply delete: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()

	st := f.Stats()
	if st.Database.GroupCommits == 0 || st.Database.GroupedTxns == 0 {
		t.Errorf("applies should have published commit groups, got %+v", st.Database)
	}
	if st.Database.StatementsExecuted == 0 {
		t.Errorf("applies should have executed statements, got %+v", st.Database)
	}
}
