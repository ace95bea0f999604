package ufilter

import (
	"context"
	"testing"

	"repro/internal/bookdb"
	"repro/internal/obs"
	"repro/internal/psd"
	"repro/internal/tpch"
	"repro/internal/xqparse"
)

// TestScanCoversGenerators: every update text the repo's generators emit
// — the paper's corpus, the psd and tpch builders and the verdict
// oracle's generated updates — is accepted by xqparse.ScanUpdate with the
// parser's key, so all of that traffic binds to its resident plan without
// a parse. A generator change that moves traffic onto the parse path
// fails here.
func TestScanCoversGenerators(t *testing.T) {
	var texts []string
	for _, u := range bookdb.AllUpdates() {
		texts = append(texts, u.Text)
	}
	texts = append(texts,
		psd.DeleteCitations("P00007"), psd.InsertCitation("P00007", "C9", "A title"),
		psd.DeleteProtein("P00011"), psd.DeleteOrganismInProtein("P00023"),
		tpch.InsertLineitemUpdate(5, 900), tpch.InsertOrderlineUpdateBush(3, 7, 1),
		tpch.DeleteLineitemsOfOrder(12))
	for _, rel := range tpch.Relations {
		texts = append(texts, tpch.DeleteElementUpdate(rel, 4))
	}
	for _, v := range oracleViews() {
		texts = append(texts, newOracleCase(t, v).updates...)
	}
	var s xqparse.Scanned
	for _, text := range texts {
		u, err := xqparse.ParseUpdate(text)
		if err != nil {
			t.Fatalf("generated update does not parse: %v\n%s", err, text)
		}
		if !xqparse.ScanUpdate(text, &s) {
			t.Errorf("ScanUpdate declines a generated update:\n%s", text)
			continue
		}
		if key := u.AppendKey(nil); string(key) != string(s.Key) {
			t.Errorf("scan key %q, parse key %q", s.Key, key)
		}
	}
	t.Logf("%d generated updates, every one scanned", len(texts))
}

// TestScanHitAllocs bounds a Check hit and a CheckDataAt hit on a
// resident tpch template: the scan, the lookup, the bind and, for the
// data check, the context probe. They measured 3 and 14 allocations when
// the scan path landed; before it the parse alone took 71.
func TestScanHitAllocs(t *testing.T) {
	e := newTPCHExec(t)
	text := tpch.InsertLineitemUpdate(5, 900)
	if _, err := e.Check(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	defer snap.Close()
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
		max  float64
	}{
		{"Check", func() (*Result, error) { return e.Check(context.Background(), text) }, 4},
		{"CheckDataAt", func() (*Result, error) { return e.CheckDataAt(snap, text) }, 16},
	} {
		n := testing.AllocsPerRun(100, func() {
			if res, err := tc.run(); err != nil || !res.Accepted {
				t.Fatalf("%s: %v %+v", tc.name, err, res)
			}
		})
		if n > tc.max && !raceEnabled {
			t.Errorf("a %s hit allocates %.0f times, want <= %.0f", tc.name, n, tc.max)
		}
	}
	if st := e.CacheStats(); st.Misses != 1 {
		t.Errorf("%d compiles for one template", st.Misses)
	}
}

// TestScanHitTrace: a template's first sighting parses and compiles; a
// later instance records only the lookup and the bind.
func TestScanHitTrace(t *testing.T) {
	e := newTPCHExec(t)
	stages := func(text string) map[string]bool {
		tr := obs.StartTrace("check")
		if _, err := e.Check(obs.WithTrace(context.Background(), tr), text); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		out := map[string]bool{}
		for _, s := range tr.Summary().Spans {
			out[s.Stage] = true
		}
		return out
	}
	first := stages(tpch.InsertLineitemUpdate(5, 900))
	if !first["parse"] || !first["compile"] {
		t.Errorf("first sighting recorded %v, want parse and compile", first)
	}
	hit := stages(tpch.InsertLineitemUpdate(6, 901))
	if !hit["cache_lookup"] || !hit["bind"] || hit["parse"] || hit["compile"] {
		t.Errorf("hit recorded %v, want cache_lookup and bind only", hit)
	}
}
