package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/ufilter"
)

// The four hot endpoints (/check, /check-batch, /apply, /apply-batch)
// speak JSON through this file instead of encoding/json. A request body
// is read whole into a pooled buffer and scanned straight into
// checkRequest or batchRequest; the response is appended into the same
// buffer and sent with its Content-Length in one Write.
//
// The scanner accepts and rejects exactly what json.Decoder with
// DisallowUnknownFields does for those two types, and decodes the same
// values (FuzzWireRequestDecode holds it to that):
//   - keys match field names under bytes.EqualFold;
//   - strings are fully unescaped: \uXXXX surrogate pairs are joined,
//     and lone surrogates and invalid UTF-8 become U+FFFD;
//   - null leaves a string, bool or int field as it was and sets the
//     list to nil;
//   - workers is a JSON number that strconv.ParseInt accepts;
//   - a repeated key decodes again over the earlier value, so the last
//     one wins;
//   - bytes after the top-level value are ignored.

// maxPooledBuf bounds the buffers kept for reuse, so one large request
// does not pin its memory in the pool.
const maxPooledBuf = 64 << 10

// wireBuf holds one hot request's bytes: the body is read into b and,
// once decoded (decoded strings are copies), the response is appended
// over it.
type wireBuf struct{ b []byte }

var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4<<10)} }}

func getWireBuf() *wireBuf { return wirePool.Get().(*wireBuf) }

func (wb *wireBuf) release() {
	if cap(wb.b) <= maxPooledBuf {
		wb.b = wb.b[:0]
		wirePool.Put(wb)
	}
}

// readRequest reads the whole body into wb.b and decodes it with
// decode, and reports whether it did; otherwise it has answered the
// request. A body over maxBodyBytes is refused whatever its content.
func readRequest(w http.ResponseWriter, r *http.Request, wb *wireBuf, decode func([]byte) error) bool {
	err := readBody(w, r, wb)
	if err == nil {
		err = decode(wb.b)
	}
	if err != nil {
		writeError(w, badRequest("bad request body: %w", err))
	}
	return err == nil
}

// readBody reads the whole request body into wb.b.
func readBody(w http.ResponseWriter, r *http.Request, wb *wireBuf) error {
	if r.ContentLength > maxBodyBytes {
		return &http.MaxBytesError{Limit: maxBodyBytes}
	}
	b := wb.b[:0]
	if n := int(r.ContentLength); n > cap(b) {
		b = make([]byte, 0, n)
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			wb.b = b
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode fills the request from a /check or /apply body.
func (req *checkRequest) decode(body []byte) error {
	s := newScanner(body)
	return s.request(func(key []byte) error {
		if bytes.EqualFold(key, []byte("update")) {
			return s.stringInto(&req.Update)
		}
		return unknownField(key)
	})
}

// decode fills the request from a /check-batch or /apply-batch body.
func (req *batchRequest) decode(body []byte) error {
	s := newScanner(body)
	return s.request(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("updates")):
			return s.stringsInto(&req.Updates)
		case bytes.EqualFold(key, []byte("workers")):
			return s.intInto(&req.Workers)
		case bytes.EqualFold(key, []byte("data")):
			return s.boolInto(&req.Data)
		}
		return unknownField(key)
	})
}

func unknownField(key []byte) error { return fmt.Errorf("unknown field %q", key) }

var errBodyEOF = errors.New("unexpected end of JSON input")

// scanner walks one request body.
type scanner struct {
	data []byte
	pos  int
	// scratch receives unescaped string bytes. It starts in the spare
	// capacity past the body, so it never overwrites the body.
	scratch []byte
}

func newScanner(data []byte) *scanner {
	return &scanner{data: data, scratch: data[len(data):]}
}

// fail reports what the scanner wanted at its cursor.
func (s *scanner) fail(want string) error {
	if s.pos >= len(s.data) {
		return errBodyEOF
	}
	return fmt.Errorf("invalid JSON at offset %d: want %s", s.pos, want)
}

// peek skips whitespace and returns the byte at the cursor, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword lit (true, false or null).
func (s *scanner) literal(lit string) error {
	end := s.pos + len(lit)
	if end > len(s.data) || string(s.data[s.pos:end]) != lit {
		return s.fail(lit)
	}
	s.pos = end
	return nil
}

// request decodes a whole body: null (the zero request) or an object,
// each of whose members field decodes from the cursor after its key.
func (s *scanner) request(field func(key []byte) error) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '{':
		s.pos++
	default:
		return s.fail("an object")
	}
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.fail("a field name")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.fail("':'")
		}
		s.pos++
		if err := field(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.fail("',' or '}'")
		}
	}
}

// stringInto decodes a string member into dst; null leaves dst as is.
func (s *scanner) stringInto(dst *string) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
		b, err := s.str()
		if err == nil {
			*dst = string(b)
		}
		return err
	}
	return s.fail("a string")
}

// boolInto decodes a boolean member into dst; null leaves dst as is.
func (s *scanner) boolInto(dst *bool) error {
	lit := "null"
	switch s.peek() {
	case 't':
		lit = "true"
	case 'f':
		lit = "false"
	case 'n':
	default:
		return s.fail("a boolean")
	}
	if err := s.literal(lit); err != nil {
		return err
	}
	if lit != "null" {
		*dst = lit == "true"
	}
	return nil
}

// intInto decodes an integer member into dst; null leaves dst as is. The
// cursor stops after the integer part, so a fraction or exponent fails
// as the next token, as strconv.ParseInt would fail it.
func (s *scanner) intInto(dst *int) error {
	c := s.peek()
	if c == 'n' {
		return s.literal("null")
	}
	start := s.pos
	if c == '-' {
		s.pos++
	}
	digit := func() bool { return s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' }
	switch {
	case !digit():
		return s.fail("an integer")
	case s.data[s.pos] == '0':
		s.pos++
	default:
		for digit() {
			s.pos++
		}
	}
	n, err := strconv.ParseInt(string(s.data[start:s.pos]), 10, 0)
	if err != nil {
		return err
	}
	*dst = int(n)
	return nil
}

// stringsInto decodes a list of strings into dst as encoding/json
// decodes into a slice: elements overwrite dst's backing array in
// place, so a null element keeps what the array held there; an empty
// list is empty but not nil, and null sets dst to nil.
func (s *scanner) stringsInto(dst *[]string) error {
	switch s.peek() {
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
		s.pos++
	default:
		return s.fail("a list of strings")
	}
	list, i := *dst, 0
	if s.peek() != ']' {
		for {
			if i == len(list) {
				if i < cap(list) {
					list = list[:i+1]
				} else {
					list = append(list, "")
				}
			}
			if err := s.stringInto(&list[i]); err != nil {
				return err
			}
			i++
			if s.peek() != ',' {
				break
			}
			s.pos++
		}
		if s.peek() != ']' {
			return s.fail("',' or ']'")
		}
	}
	s.pos++
	if i == 0 {
		list = []string{}
	}
	*dst = list[:i]
	return nil
}

// str consumes the string literal at the cursor and returns its
// unescaped bytes, which alias the body or the scratch space and are
// valid until the next call.
func (s *scanner) str() ([]byte, error) {
	for i := s.pos + 1; i < len(s.data); {
		switch c := s.data[i]; {
		case c == '"':
			out := s.data[s.pos+1 : i]
			s.pos = i + 1
			return out, nil
		case c == '\\' || c < ' ':
			return s.unescape(i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(s.data[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(i)
			}
			i += size
		}
	}
	s.pos = len(s.data)
	return nil, errBodyEOF
}

// unescape finishes the string literal at the cursor from i, the first
// byte str could not take verbatim.
func (s *scanner) unescape(i int) ([]byte, error) {
	out := append(s.scratch[:0], s.data[s.pos+1:i]...)
	for i < len(s.data) {
		c := s.data[i]
		switch {
		case c == '"':
			s.pos = i + 1
			s.scratch = out[:0]
			return out, nil
		case c < ' ':
			s.pos = i
			return nil, s.fail("no control character in a string")
		case c == '\\':
			if i+1 >= len(s.data) {
				s.pos = len(s.data)
				return nil, errBodyEOF
			}
			switch e := s.data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s.data[i:])
				if r < 0 {
					s.pos = i
					return nil, s.fail("four hex digits after a \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A pair joins into one rune; anything else leaves a
					// replacement here and the next escape to itself.
					r = utf16.DecodeRune(r, hex4(s.data[i+6:]))
					if r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				s.pos = i
				return nil, s.fail("a valid escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	s.pos = len(s.data)
	return nil, errBodyEOF
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// writeWire sends a hot endpoint's 200 response, appended in full, with
// its Content-Length in one Write.
func writeWire(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write means the client has gone; nothing is left to tell it
}

// appendVerdict appends a /check or /apply response: the bare Result,
// or {"result","trace"} for a client that asked for the trace, whose
// result also lists its probes' SQL.
func appendVerdict(dst []byte, res *ufilter.Result, tr *obs.Trace, wantTrace bool) []byte {
	if !wantTrace {
		return append(res.AppendJSON(dst), '\n')
	}
	res.RenderProbes()
	dst = res.AppendJSON(append(dst, `{"result":`...))
	return append(appendTrace(dst, tr), "}\n"...)
}

// appendBatchTail closes a batch response after its leading members:
// the per-update verdicts in input order, then the trace when the
// client asked for it (and with it each verdict's probe SQL).
func appendBatchTail(dst []byte, results []ufilter.BatchResult, tr *obs.Trace, wantTrace bool) []byte {
	dst = append(dst, `"results":[`...)
	for i, br := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if wantTrace && br.Result != nil {
			br.Result.RenderProbes()
		}
		dst = br.AppendJSON(dst)
	}
	dst = append(dst, ']')
	if wantTrace {
		dst = appendTrace(dst, tr)
	}
	return append(dst, "}\n"...)
}

// appendTrace appends the trace member. The summary is the one part of a
// hot response still encoded by encoding/json; it fails only for a start
// time outside years 0-9999, and then the member is left out.
func appendTrace(dst []byte, tr *obs.Trace) []byte {
	sum, err := json.Marshal(tr.Summary())
	if err != nil {
		return dst
	}
	return append(append(dst, `,"trace":`...), sum...)
}
