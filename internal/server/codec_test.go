package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bookdb"
)

// FuzzWireRequestDecode holds the hot endpoints' request scanner to
// json.Decoder with DisallowUnknownFields: on any body both accept or
// both reject (200 or 400), and when they accept they decode the same
// checkRequest and batchRequest. The scanner may use the capacity past
// the body as scratch space, but never the body itself.
//
//	go test -run '^$' -fuzz '^FuzzWireRequestDecode$' -fuzztime 15s ./internal/server
func FuzzWireRequestDecode(f *testing.F) {
	// Go clients escape <, > and & in strings, so the daemon's usual
	// update text arrives full of \u escapes.
	for _, v := range []any{
		map[string]string{"update": "<book><title>T & U</title></book>"},
		map[string]any{"updates": []string{"<a/>", "b"}, "workers": 1, "data": true},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		buf := append(make([]byte, 0, 2*len(body)+8), body...)
		var check, checkRef checkRequest
		sameDecode(t, body, check.decode(buf), &check, &checkRef)
		var batch, batchRef batchRequest
		sameDecode(t, body, batch.decode(buf), &batch, &batchRef)
		if !bytes.Equal(buf, body) {
			t.Fatalf("decoding wrote into the body: %q became %q", body, buf)
		}
	})
}

// sameDecode compares the scanner's outcome (err, got) with
// encoding/json's on the same body (decoded into ref).
func sameDecode(t *testing.T, body []byte, err error, got, ref any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	refErr := dec.Decode(ref)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%T from %q: scanner error %v, encoding/json error %v", got, body, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("%T from %q: scanner decoded %#v, encoding/json %#v", got, body, got, ref)
	}
}

// TestBatchItemMatchesSingleResponse: a /check-batch item carries the
// same bytes as the /check response for the same update. The rejection
// reason here names <publisher>, which batch items used to HTML-escape.
func TestBatchItemMatchesSingleResponse(t *testing.T) {
	_, ts := newTestServer(t)
	resp, single := postJSON(t, ts.URL+"/views/book/check", map[string]string{"update": bookdb.U2})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(single, []byte("<")) {
		t.Fatalf("check: HTTP %d: %s", resp.StatusCode, single)
	}
	resp, batch := postJSON(t, ts.URL+"/views/book/check-batch", map[string]any{"updates": []string{bookdb.U2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check-batch: HTTP %d: %s", resp.StatusCode, batch)
	}
	want := `{"results":[{"index":0,"result":` + strings.TrimSuffix(string(single), "\n") + "}]}\n"
	if string(batch) != want {
		t.Errorf("check-batch answered\n%s\nwant\n%s", batch, want)
	}
}

// TestHotHandlerAllocs bounds the allocations of a plan-cached /check
// and a four-update /check-batch served through Handler(), counting the
// test's own request and recorder (12 allocations). Through
// encoding/json the same requests took 38 and 94. The bounds hold
// without the race detector, which drops pooled buffers at random.
func TestHotHandlerAllocs(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add(ViewConfig{Name: "book", Dataset: "book"}); err != nil {
		t.Fatal(err)
	}
	h := New(reg).Handler()
	serve := func(path string, v any) func() {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		serve func()
		max   float64
	}{
		{"check", serve("/views/book/check", map[string]string{"update": bookdb.U12}), 30},
		{"check-batch", serve("/views/book/check-batch", map[string]any{
			"updates": []string{bookdb.U12, bookdb.U2, bookdb.U9, bookdb.U13}}), 70},
	} {
		for i := 0; i < 3; i++ { // warm the plan cache and the pools
			tc.serve()
		}
		if n := testing.AllocsPerRun(200, tc.serve); n > tc.max && !raceEnabled {
			t.Errorf("%s allocates %.0f times per request, want <= %.0f", tc.name, n, tc.max)
		}
	}
}
