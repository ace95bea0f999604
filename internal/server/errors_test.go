package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bookdb"
)

// decodeAnswer decodes an error answer, failing unless it is exactly
// {error, code} with a code of the table mapped to status.
func decodeAnswer(t testing.TB, status int, body []byte) errorBody {
	t.Helper()
	var eb errorBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("HTTP %d answer %q is not {error, code}: %v", status, body, err)
	}
	if want, ok := errorStatus[eb.Code]; !ok || want != status {
		t.Fatalf("HTTP %d answer carries code %q (status %d, known %v)", status, eb.Code, want, ok)
	}
	return eb
}

// TestErrorCodesGolden pins every code to its status.
func TestErrorCodesGolden(t *testing.T) {
	var got []string
	for code, status := range errorStatus {
		got = append(got, code+" "+strconv.Itoa(status))
	}
	compareGolden(t, "error_codes.golden", got, func(string) bool { return false })
}

// TestErrorTable holds README.md's Errors table to errorStatus: the same
// codes, each with the same status.
func TestErrorTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n### Errors\n")
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| ([0-9]{3}) \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]], _ = strconv.Atoi(m[2])
	}
	for code, status := range errorStatus {
		if documented[code] != status {
			t.Errorf("README.md documents %s as %d, the table answers %d", code, documented[code], status)
		}
	}
	for code := range documented {
		if _, ok := errorStatus[code]; !ok {
			t.Errorf("README.md documents the code %s, which no error carries", code)
		}
	}
}

// TestCreateViewStorageFailure: storage the server cannot open answers
// 503 storage_unavailable with Retry-After, while a configuration at
// fault answers 422 unprocessable whether or not storage is healthy.
func TestCreateViewStorageFailure(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.DataDir = notADir
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/views", ViewConfig{Name: "book", Dataset: "book"})
	if eb := decodeAnswer(t, resp.StatusCode, body); eb.Code != codeStorageUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("data dir is a file: HTTP %d %s, Retry-After %q; want 503 storage_unavailable, 1", resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	if _, ok := reg.Get("book"); ok {
		t.Fatal("a view whose storage failed is registered")
	}

	reg = NewRegistry()
	reg.DataDir = t.TempDir()
	defer reg.CloseWALs()
	ts = httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/views", ViewConfig{Name: "taken", Dataset: "book"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	for what, vc := range map[string]ViewConfig{
		"bad name":         {Name: "a/b", Dataset: "book"},
		"unknown dataset":  {Name: "x", Dataset: "nope"},
		"unknown strategy": {Name: "x", Dataset: "book", Strategy: "nope"},
		"bad query":        {Name: "x", Dataset: "book", Query: "not a query"},
		"name taken":       {Name: "taken", Dataset: "book"},
		"mb over limit":    {Name: "x", Dataset: "tpch", MB: maxClientMB + 1},
		"proteins over":    {Name: "x", Dataset: "psd", Proteins: maxClientProteins + 1},
		"shards over":      {Name: "x", Dataset: "book", Shards: maxClientShards + 1},
	} {
		resp, body := postJSON(t, ts.URL+"/views", vc)
		if eb := decodeAnswer(t, resp.StatusCode, body); eb.Code != codeUnprocessable {
			t.Errorf("%s: HTTP %d %s, want 422 unprocessable", what, resp.StatusCode, body)
		}
	}
}

// TestNoRouteEnvelope: a path no route has answers 404 unknown_route,
// and a route asked with a method it does not take answers 405
// method_not_allowed with the methods it does take in Allow, both in
// the error envelope.
func TestNoRouteEnvelope(t *testing.T) {
	h := New(NewRegistry()).Handler()
	for _, c := range []struct{ method, path, code, allow string }{
		{"GET", "/nope", codeUnknownRoute, ""},
		{"POST", "/views/book/check/extra", codeUnknownRoute, ""},
		{"GET", "/views/book/check", codeMethodNotAllowed, "POST"},
		{"POST", "/healthz", codeMethodNotAllowed, "GET, HEAD"},
		{"DELETE", "/views", codeMethodNotAllowed, "GET, HEAD, POST"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if eb := decodeAnswer(t, rec.Code, rec.Body.Bytes()); eb.Code != c.code || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: HTTP %d %s, Allow %q; want %s, Allow %q", c.method, c.path, rec.Code, rec.Body, rec.Header().Get("Allow"), c.code, c.allow)
		}
	}
}

// TestFailedAddReleasesStorage: an Add that fails after its durable
// storage opened (here, on a malformed custom query) closes the log it
// opened, so no goroutine outlives it, and frees the name.
func TestFailedAddReleasesStorage(t *testing.T) {
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	before := runtime.NumGoroutine()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book", Query: "not a query"}); err == nil {
		t.Fatal("a malformed query was accepted")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed Add, %d before", runtime.NumGoroutine(), before)
		}
	}
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		t.Fatalf("the name is still held after the failed Add: %v", err)
	}
	_ = reg.CloseWALs()
}

// TestConcurrentAddsOfOneName: of four concurrent durable Adds of one
// name exactly one builds the view; the others are refused before they
// touch its data dir, which then reopens with the same rows and no
// reseed.
func TestConcurrentAddsOfOneName(t *testing.T) {
	reg := NewRegistry()
	reg.DataDir = t.TempDir()
	ts := httptest.NewServer(New(reg).Handler())
	defer ts.Close()
	vc := ViewConfig{Name: "tpch", Dataset: "tpch", MB: 5}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers []string
	)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(vc)
			resp, err := http.Post(ts.URL+"/views", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			answer := strconv.Itoa(resp.StatusCode)
			if resp.StatusCode != http.StatusCreated {
				eb := decodeAnswer(t, resp.StatusCode, buf.Bytes())
				answer = fmt.Sprintf("%d %s %s", resp.StatusCode, eb.Code, eb.Error)
			}
			mu.Lock()
			answers = append(answers, answer)
			mu.Unlock()
		}()
	}
	wg.Wait()
	created, refused := 0, 0
	for _, a := range answers {
		switch {
		case a == "201":
			created++
		case a == `422 unprocessable view "tpch" already exists`:
			refused++
		default:
			t.Errorf("answer %s", a)
		}
	}
	if created != 1 || refused != 3 {
		t.Fatalf("%d created, %d refused as already existing, want 1 and 3: %q", created, refused, answers)
	}
	v, _ := reg.Get("tpch")
	rows := v.Stats().RowsTotal
	if err := reg.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	again := NewRegistry()
	again.DataDir = reg.DataDir
	v, err := again.Add(vc)
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseWALs()
	if v.Seed != nil || v.Stats().RowsTotal != rows {
		t.Fatalf("reopened: seed %+v, %d rows; want no seed and %d rows", v.Seed, v.Stats().RowsTotal, rows)
	}
}

// fuzzEndpoints are the routes FuzzServerAnswers sends bodies to.
var fuzzEndpoints = []struct{ method, path string }{
	{"POST", "/views"},
	{"POST", "/views/book/check"},
	{"POST", "/views/book/check-batch"},
	{"POST", "/views/book/apply"},
	{"POST", "/views/book/apply-batch"},
	{"POST", "/views/nope/check"},
	{"GET", "/views/book/stats"},
	{"GET", "/views/book/slow"},
	{"GET", "/views"},
	{"GET", "/metrics"},
	{"GET", "/no/such/route"},
	{"PUT", "/views/book/check"},
}

// FuzzServerAnswers: no client input gets a 5xx, and every answer that
// is not a success is {error, code} with the code's own status. A new
// view is registered on a registry of its own. A size over the client
// limits must be refused; one inside them is built only when it is
// small (tpch MB 1, 100 proteins, 4 shards at most).
//
//	go test -run '^$' -fuzz '^FuzzServerAnswers$' -fuzztime 15s ./internal/server
func FuzzServerAnswers(f *testing.F) {
	check := func(update string) []byte {
		data, _ := json.Marshal(checkRequest{Update: update})
		return data
	}
	f.Add(uint8(1), check(bookdb.U9))                                        // 200
	f.Add(uint8(0), []byte(`{"name":"b","dataset":"book"}`))                 // 201
	f.Add(uint8(1), []byte(`{"update":`))                                    // bad_request
	f.Add(uint8(2), []byte(`{"updates":[]}`))                                // bad_request
	f.Add(uint8(3), bytes.Repeat([]byte(" "), maxBodyBytes+1))               // body_too_large
	f.Add(uint8(5), check(bookdb.U9))                                        // unknown_view
	f.Add(uint8(1), check("not an update"))                                  // unprocessable
	f.Add(uint8(0), []byte(`{"name":"b","dataset":"book","query":"nope"}`))  // unprocessable
	f.Add(uint8(0), []byte(`{"name":"b","dataset":"tpch","mb":1000000000}`)) // unprocessable
	f.Add(uint8(0), []byte(`{"name":"b","dataset":"psd","proteins":1001}`))  // unprocessable
	f.Add(uint8(0), []byte(`{"name":"b","dataset":"book","shards":17}`))     // unprocessable
	f.Add(uint8(10), []byte(nil))                                            // unknown_route
	f.Add(uint8(11), check(bookdb.U9))                                       // method_not_allowed
	srv := New(NewRegistry())
	if _, err := srv.Registry.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		route, h := fuzzEndpoints[int(ep)%len(fuzzEndpoints)], h
		if route.path == "/views" && route.method == "POST" {
			var vc ViewConfig
			if vc.decode(body) == nil && checkClientSize(vc) == nil && (vc.MB > 1 || vc.Proteins > 100 || vc.Shards > 4) {
				t.Skip("too large a dataset to build per input")
			}
			h = New(NewRegistry()).Handler()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(route.method, route.path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s answered %d: %s", route.method, route.path, rec.Code, rec.Body)
		}
		if rec.Code >= 300 {
			decodeAnswer(t, rec.Code, rec.Body.Bytes())
		}
	})
}
