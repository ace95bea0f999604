package ufilter

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unicode/utf8"
)

// wirePieces are the fragments random wire strings are built from: plain
// text, the bytes encoding/json escapes (quote, backslash, control bytes,
// HTML's three), U+2028/U+2029, multi-byte runes, and invalid UTF-8.
var wirePieces = []string{
	"a", "Z", " ", "SELECT 1", "<", ">", "&", `"`, `\`, "/",
	"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
	string(rune(0x2028)), string(rune(0x2029)), string(utf8.RuneError),
	"é", string(rune(0x1F600)), "\xff", "\xc3", "\xed\xa0\x80",
}

func randWireString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		b = append(b, wirePieces[rng.Intn(len(wirePieces))]...)
	}
	return string(b)
}

func randWireStrings(rng *rand.Rand) []string {
	var out []string
	for n := rng.Intn(4); n > 0; n-- {
		out = append(out, randWireString(rng))
	}
	return out
}

func randResult(rng *rand.Rand) *Result {
	r := &Result{
		Accepted:     rng.Intn(2) == 0,
		RejectedAt:   Step(rng.Intn(len(stepNames))),
		Outcome:      Outcome(rng.Intn(len(outcomeNames))),
		Reason:       randWireString(rng),
		Probes:       randWireStrings(rng),
		SQL:          randWireStrings(rng),
		RowsAffected: rng.Intn(2000) - 1000,
		Warnings:     randWireStrings(rng),
	}
	for n := rng.Intn(3); n > 0; n-- {
		r.Conditions = append(r.Conditions, Condition(rng.Intn(len(conditionNames))))
	}
	return r
}

// tagShadow builds, from Result's json tags alone, a struct type with
// the same fields where every text-marshalled enum (and list of them) is
// a string, so encoding/json encodes it without any of Result's methods.
// A field added to Result without AppendJSON support shows up as a
// difference against it.
func tagShadow() func(*Result) reflect.Value {
	textType := reflect.TypeFor[encoding.TextMarshaler]()
	rt := reflect.TypeFor[Result]()
	var fields []reflect.StructField
	var from []int
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Tag.Get("json") == "-" || !f.IsExported() {
			continue // encoding/json writes neither
		}
		switch {
		case f.Type.Implements(textType):
			f.Type = reflect.TypeFor[string]()
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Implements(textType):
			f.Type = reflect.TypeFor[[]string]()
		}
		f.Index, f.Offset = nil, 0
		fields = append(fields, f)
		from = append(from, i)
	}
	st := reflect.StructOf(fields)
	return func(r *Result) reflect.Value {
		src := reflect.ValueOf(r).Elem()
		dst := reflect.New(st).Elem()
		for j, i := range from {
			v, d := src.Field(i), dst.Field(j)
			switch {
			case d.Type() == v.Type():
				d.Set(v)
			case d.Kind() == reflect.String:
				d.SetString(v.Interface().(fmt.Stringer).String())
			case v.Len() > 0:
				names := make([]string, v.Len())
				for k := range names {
					names[k] = v.Index(k).Interface().(fmt.Stringer).String()
				}
				d.Set(reflect.ValueOf(names))
			}
		}
		return dst
	}
}

// encodeNoHTML is encoding/json's output for v with HTML escaping off,
// minus Encode's trailing newline.
func encodeNoHTML(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// wireRoundTrip is what a string reads back as after encoding: every
// invalid UTF-8 byte becomes U+FFFD.
func wireRoundTrip(s string) string { return string([]rune(s)) }

func wireRoundTrips(list []string) []string {
	if len(list) == 0 {
		return nil
	}
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = wireRoundTrip(s)
	}
	return out
}

// TestResultWireMatchesTags: for random Results, AppendJSON equals
// encoding/json's output for a tag-only shadow of Result with HTML
// escaping off, json.Marshal callers get the same bytes through
// MarshalJSON, BatchResult wraps it the same way, and the bytes decode
// back into the Result.
func TestResultWireMatchesTags(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shadow := tagShadow()
	for i := 0; i < 2000; i++ {
		r := randResult(rng)
		got := r.AppendJSON(nil)
		if want := encodeNoHTML(t, shadow(r).Interface()); !bytes.Equal(got, want) {
			t.Fatalf("result %d:\nAppendJSON %s\nshadow     %s", i, got, want)
		}
		if viaMarshal := encodeNoHTML(t, r); !bytes.Equal(viaMarshal, got) {
			t.Fatalf("result %d: encoding/json through MarshalJSON gives\n%s\nwant %s", i, viaMarshal, got)
		}

		br := BatchResult{Index: i, Result: r}
		if rng.Intn(3) == 0 {
			br = BatchResult{Index: i, Err: errors.New(randWireString(rng))}
		}
		wantBatch := struct {
			Index  int    `json:"index"`
			Result any    `json:"result,omitempty"`
			Error  string `json:"error,omitempty"`
		}{Index: br.Index}
		if br.Result != nil {
			wantBatch.Result = shadow(br.Result).Interface()
		} else {
			wantBatch.Error = br.Err.Error()
		}
		if gotBatch, want := br.AppendJSON(nil), encodeNoHTML(t, wantBatch); !bytes.Equal(gotBatch, want) {
			t.Fatalf("batch result %d:\nAppendJSON %s\nshadow     %s", i, gotBatch, want)
		}

		var back Result
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("result %d does not decode: %v\n%s", i, err, got)
		}
		want := *r
		want.Reason = wireRoundTrip(r.Reason)
		want.Probes, want.SQL, want.Warnings = wireRoundTrips(r.Probes), wireRoundTrips(r.SQL), wireRoundTrips(r.Warnings)
		if len(want.Conditions) == 0 {
			want.Conditions = nil
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("result %d round trip:\n got %+v\nwant %+v", i, back, want)
		}
	}
}

// TestAppendJSONAllocatesNothing: encoding a verdict into a buffer with
// room allocates nothing (json.Marshal of the same Result took 6).
func TestAppendJSONAllocatesNothing(t *testing.T) {
	r := &Result{
		RejectedAt: StepSTAR, Outcome: OutcomeUntranslatable, Conditions: []Condition{CondMinimization},
		Reason: "node vE <publisher> is unsafe-delete (rule 1): deleting it causes a view side effect",
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = BatchResult{Result: r}.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON allocates %.0f times, want 0", n)
	}
}
