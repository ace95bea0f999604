package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bookdb"
	"repro/internal/pagestore"
	"repro/internal/psd"
	"repro/internal/relational"
	"repro/internal/ufilter"
)

// newTestServer hosts a book view and a psd view (two datasets, two
// databases) behind httptest.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(ViewConfig{Name: "proteins", Dataset: "psd", Proteins: 50}); err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestHealthzAndViews: liveness plus the view listing.
func TestHealthzAndViews(t *testing.T) {
	_, ts := newTestServer(t)
	var health struct {
		Status string `json:"status"`
		Views  int    `json:"views"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Views != 2 {
		t.Fatalf("healthz = %+v, want ok/2", health)
	}
	var list struct {
		Views []struct {
			Name       string `json:"name"`
			Dataset    string `json:"dataset"`
			QueueDepth int    `json:"queue_depth"`
		} `json:"views"`
	}
	getJSON(t, ts.URL+"/views", &list)
	if len(list.Views) != 2 || list.Views[0].Name != "book" || list.Views[1].Name != "proteins" {
		t.Fatalf("views = %+v", list.Views)
	}
	if list.Views[0].QueueDepth != DefaultApplyQueueDepth {
		t.Fatalf("queue depth = %d, want %d", list.Views[0].QueueDepth, DefaultApplyQueueDepth)
	}
}

// TestCheckEndpoint: the wire verdicts match the library's, using the
// shared JSON spelling.
func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, view, update string
		accepted           bool
		outcome            string
	}{
		{"u12 accepted", "book", bookdb.U12, true, "unconditionally translatable"},
		{"u2 untranslatable", "book", bookdb.U2, false, "untranslatable"},
		{"psd citations", "proteins", psd.DeleteCitations("P00001"), true, "unconditionally translatable"},
		{"psd organism", "proteins", psd.DeleteOrganismInProtein("P00001"), false, "untranslatable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/views/"+tc.view+"/check", map[string]string{"update": tc.update})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
			}
			var res ufilter.Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("decode: %v\n%s", err, body)
			}
			if res.Accepted != tc.accepted || res.Outcome.String() != tc.outcome {
				t.Fatalf("got accepted=%v outcome=%q, want %v %q", res.Accepted, res.Outcome, tc.accepted, tc.outcome)
			}
		})
	}
}

// TestCheckErrors: malformed bodies are 400, unparseable updates 422,
// unknown views 404.
func TestCheckErrors(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/views/book/check", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": "this is not an update"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad update: HTTP %d (%s), want 422", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/views/nope/check", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown view: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a body over the 4 MiB bound is answered 413
// Content Too Large on a single and a batch endpoint, not 400.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t)
	huge := strings.Repeat("x", maxBodyBytes)
	for path, body := range map[string]any{
		"/views/book/check":       map[string]string{"update": huge},
		"/views/book/apply-batch": map[string][]string{"updates": {huge}},
	} {
		resp, out := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: HTTP %d (%.80s), want 413", path, len(huge), resp.StatusCode, out)
		}
	}
}

// TestCheckBatchEndpoint: batch results come back in input order with
// per-update errors as strings.
func TestCheckBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	updates := []string{bookdb.U12, "garbage", bookdb.U2}
	resp, body := postJSON(t, ts.URL+"/views/book/check-batch",
		map[string]any{"updates": updates, "workers": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []ufilter.BatchResult `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Err != nil || !out.Results[0].Result.Accepted {
		t.Errorf("u12: %+v", out.Results[0])
	}
	if out.Results[1].Err == nil {
		t.Errorf("garbage should carry an error: %+v", out.Results[1])
	}
	if out.Results[2].Err != nil || out.Results[2].Result.Accepted {
		t.Errorf("u2 should be rejected: %+v", out.Results[2])
	}
}

// TestApplyEndpoint: a full-pipeline insert mutates the database and a
// second identical insert is rejected by Step 3 (duplicate key).
func TestApplyEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ins := `
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT <review><reviewid>90001</reviewid><comment> via http </comment></review>
}`
	resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": ins})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var res ufilter.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.RowsAffected == 0 {
		t.Fatalf("apply not accepted: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": ins})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.RejectedAt != ufilter.StepData {
		t.Fatalf("duplicate insert should be rejected at the data step: %s", body)
	}
}

// TestCreateViewEndpoint: POST /views registers a view usable
// immediately; duplicates and unknown datasets are rejected.
func TestCreateViewEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/views",
		ViewConfig{Name: "book2", Dataset: "book", Strategy: "outside", QueueDepth: 3})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/views/book2/check", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check on created view: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/views", ViewConfig{Name: "book2", Dataset: "book"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate name: HTTP %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/views", ViewConfig{Name: "x", Dataset: "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown dataset: HTTP %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/views", ViewConfig{Name: "a/b", Dataset: "book"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unroutable name: HTTP %d, want 422", resp.StatusCode)
	}
}

// TestCreateViewRefusesOtherFormat: a view dir stamped with another
// on-disk format number is refused — Add returns ErrDataDirFormat, POST
// /views answers 409 — and is never wiped or reseeded: its names, sizes
// and bytes stay as they were. An unknown dataset still answers 422.
func TestCreateViewRefusesOtherFormat(t *testing.T) {
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(reg.DataDir, "book")
	if err := os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := fileTree(t, dir)

	reg = NewRegistry()
	reg.DataDir = filepath.Dir(dir)
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); !errors.Is(err, relational.ErrDataDirFormat) {
		t.Fatalf("Add gave %v, want ErrDataDirFormat", err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/views", ViewConfig{Name: "book", Dataset: "book"})
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "reseed: delete "+dir) {
		t.Fatalf("view dir in another format: HTTP %d %s, want 409 naming the reseed", resp.StatusCode, body)
	}
	if after := fileTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused view dir changed")
	}
	resp, _ = postJSON(t, ts.URL+"/views", ViewConfig{Name: "x", Dataset: "nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown dataset: HTTP %d, want 422", resp.StatusCode)
	}
}

// fileTree reads every file under dir, by path.
func fileTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCreateViewRefusesCorruptDirectory: a seeded view whose page
// directory has one flipped byte is not an empty store to seed again.
// Add fails with the page store's ErrCorruptDirectory, POST /views
// answers 503 storage_unavailable, and the dir keeps every byte: nothing
// is truncated, wiped or reseeded over the checkpointed rows.
func TestCreateViewRefusesCorruptDirectory(t *testing.T) {
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	pagedir := filepath.Join(reg.DataDir, "book", "pagedir")
	data, err := os.ReadFile(pagedir)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(pagedir, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := fileTree(t, reg.DataDir)

	reg = NewRegistry()
	reg.DataDir = filepath.Dir(filepath.Dir(pagedir))
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); !errors.Is(err, pagestore.ErrCorruptDirectory) {
		t.Fatalf("Add gave %v, want ErrCorruptDirectory", err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/views", ViewConfig{Name: "book", Dataset: "book"})
	if eb := decodeAnswer(t, resp.StatusCode, body); eb.Code != codeStorageUnavailable {
		t.Fatalf("corrupt page directory: HTTP %d %s, want 503 storage_unavailable", resp.StatusCode, body)
	}
	if _, ok := reg.Get("book"); ok {
		t.Fatal("a view over a corrupt page directory is registered")
	}
	if after := fileTree(t, reg.DataDir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused view dir changed")
	}
}

// TestCreateViewInheritsDefaultQueueDepth: a runtime-registered view
// that sets no queue_depth gets DefaultApplyQueueDepth.
func TestCreateViewInheritsDefaultQueueDepth(t *testing.T) {
	reg := NewRegistry()
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/views", ViewConfig{Name: "book", Dataset: "book"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	v, _ := reg.Get("book")
	if v.QueueCapacity() != DefaultApplyQueueDepth {
		t.Fatalf("queue depth = %d, want the default %d", v.QueueCapacity(), DefaultApplyQueueDepth)
	}
}

// TestStatsEndpoint: /stats reports the same counters the library
// exposes through Filter.CacheStats and the executor totals.
func TestStatsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U12})
	}
	postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})

	var st ViewStats
	if resp := getJSON(t, ts.URL+"/views/book/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	v, _ := s.Registry.Get("book")
	want := v.Filter.CacheStats()
	if st.Filter.Cache != want {
		t.Errorf("stats cache = %+v, want %+v", st.Filter.Cache, want)
	}
	if st.Filter.Cache.Hits < 4 {
		t.Errorf("expected >=4 cache hits, got %+v", st.Filter.Cache)
	}
	if st.CacheHitRate != want.HitRate() {
		t.Errorf("hit rate = %v, want %v", st.CacheHitRate, want.HitRate())
	}
	if got := v.Filter.Exec.Stats(); st.Filter.Executor != got {
		t.Errorf("executor stats = %+v, want %+v", st.Filter.Executor, got)
	}
	if st.Filter.Database.StatementsExecuted != v.Filter.Exec.DB.Stats().StatementsExecuted {
		t.Errorf("db stats = %+v", st.Filter.Database)
	}
	if st.Checks != 5 || st.Applies.Total != 1 {
		t.Errorf("traffic counters = checks %d applies %+v", st.Checks, st.Applies)
	}
}

// TestMetricsEndpoint: the Prometheus text carries per-view samples.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U12})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`ufilterd_checks_total{view="book"} 1`,
		`ufilterd_checks_total{view="proteins"} 0`,
		`ufilterd_apply_queue_depth{view="book"} 16`,
		"# TYPE ufilterd_cache_hit_rate gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestApplyBackpressure fills the admission queue with blocked applies
// and asserts: the overflow request is shed with 429 + Retry-After,
// checks still complete while the queue is saturated, and the queue
// drains cleanly.
func TestApplyBackpressure(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book", QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	v.applyFn = func(context.Context, string) (*ufilter.Result, error) {
		started <- struct{}{}
		<-block
		return &ufilter.Result{Accepted: true}, nil
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocked apply: HTTP %d: %s", resp.StatusCode, body)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("applies did not reach the pipeline")
		}
	}

	// Queue saturated: the next apply is shed immediately.
	resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow apply: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}

	// Checks are unaffected by apply saturation.
	resp, body = postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U12})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check under backpressure: HTTP %d: %s", resp.StatusCode, body)
	}

	close(block)
	wg.Wait()
	st := v.Stats()
	if st.Queue.Shed != 1 || st.Applies.Total != 2 || st.Queue.InFlight != 0 {
		t.Errorf("final stats: %+v", st)
	}
}

// statsCounter counts the Stats calls made through an engine.
type statsCounter struct {
	relational.Engine
	calls atomic.Int64
}

func (e *statsCounter) Stats() relational.DBStats {
	e.calls.Add(1)
	return e.Engine.Stats()
}

// TestShedReadsStatsOnlyWhenSampleDue: shedding an apply must not take an
// engine statistics snapshot (every statistics lock, on every shard)
// per request; the conflict rate is sampled at most once per
// conflictRateSampleMin.
func TestShedReadsStatsOnlyWhenSampleDue(t *testing.T) {
	reg := NewRegistry()
	v, err := reg.Add(ViewConfig{Name: "book", Dataset: "book", QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := &statsCounter{Engine: v.Filter.Exec.DB}
	v.Filter.Exec.DB = eng
	if !v.tryAcquire() {
		t.Fatal("slot not acquired")
	}
	defer v.release()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := v.Apply(context.Background(), bookdb.U12); codeFor(err) != codeOverloaded {
			t.Fatalf("apply past a full limiter: %v, want a shed", err)
		}
	}
	windows := int64(time.Since(start)/conflictRateSampleMin) + 1
	if got := eng.calls.Load(); got > windows+1 {
		t.Fatalf("1000 sheds in %d sample window(s) took %d engine Stats snapshots, want at most %d", windows, got, windows+1)
	}
}

// TestConcurrentHTTPTraffic is the -race regression for the subsystem:
// concurrent HTTP checks, applies and stats reads against two views at
// once.
func TestConcurrentHTTPTraffic(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup

	// Checkers on both views.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				view, update := "book", bookdb.U12
				if (g+i)%2 == 0 {
					view, update = "proteins", psd.DeleteCitations(fmt.Sprintf("P%05d", i))
				}
				resp, body := postJSON(t, ts.URL+"/views/"+view+"/check", map[string]string{"update": update})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("check: HTTP %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	// Appliers on the book view; 429s are legitimate under saturation.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ins := fmt.Sprintf(`
FOR $book IN document("BookView.xml")/book
WHERE $book/title/text() = "Data on the Web"
UPDATE $book {
  INSERT <review><reviewid>7%d%02d</reviewid><comment> http race </comment></review>
}`, w, i)
				for _, u := range []string{ins, bookdb.U12} {
					resp, body := postJSON(t, ts.URL+"/views/book/apply", map[string]string{"update": u})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("apply: HTTP %d: %s", resp.StatusCode, body)
						return
					}
				}
			}
		}(w)
	}
	// Stats and metrics readers run throughout.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				getJSON(t, ts.URL+"/views/book/stats", &ViewStats{})
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestLoadConfig: the JSON config round-trips into a working registry.
func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ufilterd.json"
	cfg := Config{
		Views: []ViewConfig{
			{Name: "book", Dataset: "book", Strategy: "outside"},
			{Name: "proteins", Dataset: "psd", Proteins: 25, QueueDepth: 2},
		},
	}
	data, _ := json.Marshal(cfg)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for _, vc := range got.Views {
		if _, err := reg.Add(vc); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := reg.Get("book")
	if b.Strategy != ufilter.StrategyOutside || b.QueueCapacity() != DefaultApplyQueueDepth {
		t.Errorf("book: strategy %v depth %d", b.Strategy, b.QueueCapacity())
	}
	p, _ := reg.Get("proteins")
	if p.QueueCapacity() != 2 {
		t.Errorf("proteins depth = %d, want per-view override 2", p.QueueCapacity())
	}
}

// BenchmarkCheckHandler measures end-to-end HTTP check throughput on a
// hot decision cache (the production fast path the daemon exists for).
func BenchmarkCheckHandler(b *testing.B) {
	reg := NewRegistry()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"update": bookdb.U12})
	url := ts.URL + "/views/book/check"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("HTTP %d", resp.StatusCode)
				return
			}
		}
	})
}
