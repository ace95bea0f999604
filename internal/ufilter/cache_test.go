package ufilter

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/xqparse"
)

// deleteReviewsByTitle builds a U12-shaped update: a string literal on
// the title leaf, which carries no CHECK annotations.
func deleteReviewsByTitle(title string) string {
	return fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = %q
UPDATE $book { DELETE $book/review }`, title)
}

// deleteBooksOverPrice builds a U9-shaped update: a float literal on
// the price leaf, which carries CHECK annotations (the view publishes
// books under $50 only) — the verdict depends on the literal.
func deleteBooksOverPrice(price string) string {
	return fmt.Sprintf(`
FOR $root IN document("BookView.xml"),
    $book = $root/book
WHERE $book/price > %s
UPDATE $root { DELETE $book }`, price)
}

// TestCacheTemplateTier: structurally-equal updates with different
// string literals on a check-free leaf hit the template tier (one miss,
// then hits), and a cached rejection replays identically.
func TestCacheTemplateTier(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	titles := []string{"Data on the Web", "Programming in Unix", "TCP/IP Illustrated"}
	var first *Result
	for i, title := range titles {
		res, err := f.Check(context.Background(), deleteReviewsByTitle(title))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res.Accepted != first.Accepted || res.Outcome != first.Outcome {
			t.Errorf("title %q verdict diverged: %+v vs %+v", title, res, first)
		}
	}
	st := f.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 template hits", st)
	}
	if st.TemplateEntries != 1 {
		t.Errorf("TemplateEntries = %d, want 1", st.TemplateEntries)
	}
}

// TestCacheLiteralDerived: the price template's verdict flips with the
// literal (overlap test against the view's CHECK); each instance's
// verdict is derived off the one resident plan, never stored per
// literal.
func TestCacheLiteralDerived(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	ok1, err := f.Check(context.Background(), deleteBooksOverPrice("40.00"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := f.Check(context.Background(), deleteBooksOverPrice("50.00"))
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := f.Check(context.Background(), deleteBooksOverPrice("40.00"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok1.Accepted || ok1.Outcome != OutcomeConditional {
		t.Errorf("price>40 should be conditionally translatable, got %+v", ok1)
	}
	if bad.Accepted || bad.Outcome != OutcomeInvalid {
		t.Errorf("price>50 should be invalid (no overlap with the view), got %+v", bad)
	}
	if ok2.Accepted != ok1.Accepted || ok2.Outcome != ok1.Outcome || ok2.Reason != ok1.Reason {
		t.Errorf("re-derived verdict diverged: %+v vs %+v", ok2, ok1)
	}
	st := f.CacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.TemplateEntries != 1 {
		t.Errorf("stats = %+v, want 1 miss (the compile) / 2 hits off 1 template entry", st)
	}
}

// TestCacheMatchesUncached replays the paper's full update corpus twice
// — cached against a throwaway plan compiled per update — and requires
// identical verdicts.
func TestCacheMatchesUncached(t *testing.T) {
	cached := newFilter(t, StrategyHybrid)
	plain := newFilter(t, StrategyHybrid)
	corpus := append([]string{},
		deleteReviewsByTitle("Data on the Web"),
		deleteBooksOverPrice("45.00"),
		deleteBooksOverPrice("55.00"),
	)
	for _, u := range allBookUpdates() {
		corpus = append(corpus, u)
	}
	// Two passes: the second is served from cache.
	for pass := 0; pass < 2; pass++ {
		for i, text := range corpus {
			want, err1 := compiledVerdict(plain, text)
			got, err2 := cached.Check(context.Background(), text)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("pass %d update %d: err %v vs %v", pass, i, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if got.Accepted != want.Accepted || got.Outcome != want.Outcome ||
				got.RejectedAt != want.RejectedAt || got.Reason != want.Reason ||
				!reflect.DeepEqual(got.Conditions, want.Conditions) {
				t.Errorf("pass %d update %d: cached %+v, uncached %+v", pass, i, got, want)
			}
		}
	}
	if st := cached.CacheStats(); st.Hits == 0 {
		t.Error("second pass produced no cache hits")
	}
	if st := plain.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("throwaway plans went through the cache: %+v", st)
	}
}

// compiledVerdict is the reference verdict of one update: a plan
// compiled from it alone, outside the plan cache.
func compiledVerdict(f *Filter, text string) (*Result, error) {
	p, err := f.Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.Verdict, nil
}

// TestCachedResultIsolated: mutating a returned Result (as Apply does)
// must not corrupt the cached copy.
func TestCachedResultIsolated(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	text := deleteBooksOverPrice("41.00")
	r1, err := f.Check(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	r1.Accepted = false
	r1.Reason = "mutated by caller"
	r1.Conditions = append(r1.Conditions, CondDupConsistency)
	r1.Probes = append(r1.Probes, "SELECT 1")
	r2, err := f.Check(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Accepted || r2.Reason == "mutated by caller" || len(r2.Probes) != 0 {
		t.Errorf("cached result was corrupted by caller mutation: %+v", r2)
	}
	if len(r2.Conditions) != 1 || r2.Conditions[0] != CondMinimization {
		t.Errorf("cached conditions corrupted: %v", r2.Conditions)
	}
}

// TestCheckParsedCached: CheckParsed shares the template tier with
// Check even though it never sees update text.
func TestCheckParsedCached(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	u1, err := xqparse.ParseUpdate(deleteReviewsByTitle("Data on the Web"))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := xqparse.ParseUpdate(deleteReviewsByTitle("Some Other Title"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CheckParsed(u1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CheckParsed(u2); err != nil {
		t.Fatal(err)
	}
	st := f.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestCheckBatch: batch results arrive in input order, agree with
// sequential Check, and report per-update parse errors.
func TestCheckBatch(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	updates := []string{
		deleteReviewsByTitle("Data on the Web"),
		"NOT AN UPDATE AT ALL",
		deleteBooksOverPrice("55.00"),
		deleteReviewsByTitle("Data on the Web"),
	}
	seq := newFilter(t, StrategyHybrid)
	results := f.CheckBatch(updates, 4)
	if len(results) != len(updates) {
		t.Fatalf("got %d results, want %d", len(results), len(updates))
	}
	for i, br := range results {
		if br.Index != i {
			t.Errorf("result %d has Index %d", i, br.Index)
		}
		want, wantErr := seq.Check(context.Background(), updates[i])
		if (br.Err == nil) != (wantErr == nil) {
			t.Errorf("update %d: batch err %v, sequential err %v", i, br.Err, wantErr)
			continue
		}
		if br.Err != nil {
			continue
		}
		if br.Result.Accepted != want.Accepted || br.Result.Outcome != want.Outcome {
			t.Errorf("update %d: batch %+v, sequential %+v", i, br.Result, want)
		}
	}
	// Empty batch and zero workers are fine.
	if out := f.CheckBatch(nil, 0); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// allBookUpdates lists the paper's u1..u13 corpus.
func allBookUpdates() []string {
	var out []string
	for _, u := range bookdb.AllUpdates() {
		out = append(out, u.Text)
	}
	return out
}
