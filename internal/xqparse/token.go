// Package xqparse parses the two XQuery dialects the U-Filter paper
// uses, producing the ASTs every downstream stage consumes:
//
//   - View definitions (Fig. 3(a)): SilkRoute/XPERANTO-style FLWR
//     queries over the default XML view — nested FOR ... WHERE ...
//     RETURN blocks with element constructors and projections.
//     [ParseViewQuery] returns a [ViewQuery], which internal/asg
//     compiles into the view's Annotated Schema Graph and
//     internal/viewengine evaluates to materialize the view.
//
//   - View updates (Figs. 4 and 10): the "XQuery-like" update language
//     of Tatarinov et al. — FOR ... WHERE ... UPDATE $var {
//     INSERT <frag/> | DELETE $v/path | REPLACE $v/path WITH <frag/> }.
//     [ParseUpdate] returns an [UpdateQuery], the input to U-Filter's
//     Step 1 (internal/ufilter resolves it against the view ASG).
//
// The grammar covers the paper's corpus, not full XQuery: conjunctive
// WHERE clauses comparing paths to literals or paths to paths
// (correlation predicates, Pred.IsCorrelation), document() roots,
// child-axis paths with an optional trailing /text(), and literal
// element fragments.
//
// Update traffic repeats a few templates, so updates have a second
// reader. [UpdateQuery.AppendKey] writes an update's template key — its
// operation kinds, paths and predicate shapes with literal values and
// fragment text stripped — which keys internal/ufilter's cache of compiled
// plans. [ScanUpdate] writes the same key straight from the text, in one
// pass and without building an AST, beside the predicate literals and
// the fragments' leaf texts, so a resident template's instances bind to
// its plan unparsed; only a template's first sighting, or a text outside
// the scanner's plain subset, is parsed.
package xqparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVariable // $name
	tokString   // "..." or '...' or “...” (the paper uses curly quotes)
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokSlash
	tokLT
	tokLTSlash // </
	tokGT
	tokLE
	tokGE
	tokEQ
	tokNE
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVariable:
		return "variable"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokComma:
		return ","
	case tokSlash:
		return "/"
	case tokLT:
		return "<"
	case tokLTSlash:
		return "</"
	case tokGT:
		return ">"
	case tokLE:
		return "<="
	case tokGE:
		return ">="
	case tokEQ:
		return "="
	case tokNE:
		return "!="
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// token is one lexical unit with its source offset (for error messages
// and for fragment re-scanning).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer is a hand-rolled scanner with single-token lookahead. The update
// parser additionally re-scans raw balanced XML fragments directly from
// the input (see rawXMLFragment), which requires tracking token start
// offsets.
type lexer struct {
	input   string
	pos     int
	peeked  token
	hasPeek bool
}

func newLexer(input string) *lexer { return &lexer{input: input} }

// errorf produces a parse error annotated with line/column.
func (lx *lexer) errorf(pos int, format string, args ...interface{}) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(lx.input); i++ {
		if lx.input[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("xqparse: line %d col %d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) skipSpace() {
	const space = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'
	i := lx.pos
	for i < len(lx.input) && lx.input[i] <= ' ' && space&(1<<lx.input[i]) != 0 {
		i++
	}
	lx.pos = i
}

// peek returns the next token without consuming it.
func (lx *lexer) peek() (token, error) {
	if !lx.hasPeek {
		if err := lx.scan(&lx.peeked); err != nil {
			return token{}, err
		}
		lx.hasPeek = true
	}
	return lx.peeked, nil
}

// next consumes and returns the next token.
func (lx *lexer) next() (token, error) {
	if lx.hasPeek {
		lx.hasPeek = false
		return lx.peeked, nil
	}
	var t token
	err := lx.scan(&t)
	return t, err
}

// expect consumes the next token and fails unless it has the given kind.
func (lx *lexer) expect(kind tokenKind) (token, error) {
	t, err := lx.next()
	if err != nil {
		return token{}, err
	}
	if t.kind != kind {
		return token{}, lx.errorf(t.pos, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return t, nil
}

// expectKeyword consumes an identifier token and fails unless it matches
// the keyword case-insensitively.
func (lx *lexer) expectKeyword(kw string) error {
	t, err := lx.next()
	if err != nil {
		return err
	}
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return lx.errorf(t.pos, "expected keyword %s, found %q", kw, t.text)
	}
	return nil
}

// peekKeyword reports whether the next token is the given keyword.
func (lx *lexer) peekKeyword(kw string) bool {
	t, err := lx.peek()
	if err != nil {
		return false
	}
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// resetTo rewinds the scanner to an absolute offset, discarding
// lookahead. Used to hand raw fragment text to the XML parser.
func (lx *lexer) resetTo(pos int) {
	lx.pos = pos
	lx.hasPeek = false
}

// Byte classes of identifiers. The lexer reads one byte at a time, and a
// byte above 0x7f counts as the Latin-1 character of its value, so the
// table holds unicode's verdict on every byte: an identifier starts with
// a letter or '_' and goes on with letters, digits, '_', '-' and '.'.
const (
	identStart uint8 = 1 << iota
	identPart
)

var identClass = func() (t [256]uint8) {
	for b := range t {
		r := rune(b)
		if unicode.IsLetter(r) || r == '_' {
			t[b] |= identStart
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' {
			t[b] |= identPart
		}
	}
	return t
}()

// identEnd returns the end of the identifier whose first byte is s[i].
func identEnd(s string, i int) int {
	for i++; i < len(s) && identClass[s[i]]&identPart != 0; i++ {
	}
	return i
}

// scan reads the next token from the input into t.
func (lx *lexer) scan(t *token) error {
	lx.skipSpace()
	start := lx.pos
	if start >= len(lx.input) {
		*t = token{kind: tokEOF, pos: start}
		return nil
	}
	c := lx.input[start]
	// An identifier, the common token, first; a byte above 0x7f that
	// starts one may instead start a curly quote.
	if identClass[c]&identStart != 0 && (c < 0x80 || !strings.HasPrefix(lx.input[start:], "“")) {
		lx.pos = identEnd(lx.input, start)
		*t = token{tokIdent, lx.input[start:lx.pos], start}
		return nil
	}
	kind, n := tokEOF, 1 // a one- or two-byte punctuator, unless kind stays EOF
	next := byte(0)
	if start+1 < len(lx.input) {
		next = lx.input[start+1]
	}
	switch c {
	case '(':
		kind = tokLParen
	case ')':
		kind = tokRParen
	case '{':
		kind = tokLBrace
	case '}':
		kind = tokRBrace
	case ',':
		kind = tokComma
	case '/':
		kind = tokSlash
	case '=':
		kind = tokEQ
	case '!':
		if next != '=' {
			return lx.errorf(start, "unexpected '!'")
		}
		kind, n = tokNE, 2
	case '<':
		switch next {
		case '/':
			kind, n = tokLTSlash, 2
		case '=':
			kind, n = tokLE, 2
		case '>':
			kind, n = tokNE, 2
		default:
			kind = tokLT
		}
	case '>':
		if kind = tokGT; next == '=' {
			kind, n = tokGE, 2
		}
	case '$':
		j := start + 1
		for j < len(lx.input) && identClass[lx.input[j]]&identPart != 0 {
			j++
		}
		if j == start+1 {
			return lx.errorf(start, "empty variable name after '$'")
		}
		lx.pos = j
		*t = token{tokVariable, lx.input[start+1 : j], start}
		return nil
	case '"', '\'':
		end := strings.IndexByte(lx.input[start+1:], c)
		if end < 0 {
			return lx.errorf(start, "unterminated string literal")
		}
		lx.pos = start + 1 + end + 1
		*t = token{tokString, lx.input[start+1 : start+1+end], start}
		return nil
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		if c == '-' && !isDigit(next) {
			return lx.errorf(start, "unexpected character %q", string(rune(c)))
		}
		j := start + 1
		seenDot := false
		for j < len(lx.input) {
			d := lx.input[j]
			if isDigit(d) {
				j++
				continue
			}
			if d == '.' && !seenDot && j+1 < len(lx.input) && isDigit(lx.input[j+1]) {
				seenDot = true
				j++
				continue
			}
			break
		}
		lx.pos = j
		*t = token{tokNumber, lx.input[start:j], start}
		return nil
	default:
		if !strings.HasPrefix(lx.input[start:], "“") { // left curly quote
			return lx.errorf(start, "unexpected character %q", string(rune(c)))
		}
		j := start + len("“")
		end := strings.Index(lx.input[j:], "”")
		if end < 0 {
			return lx.errorf(start, "unterminated curly-quoted string")
		}
		lx.pos = j + end + len("”")
		*t = token{tokString, lx.input[j : j+end], start}
		return nil
	}
	lx.pos = start + n
	*t = token{kind, lx.input[start : start+n], start}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// rawXMLFragment extracts one balanced XML element starting at the next
// non-space position (which must be '<'). It returns the raw fragment
// text and advances the scanner past it. Quoted values inside element
// content (the paper writes <bookid>"98004"</bookid>) are preserved;
// callers strip them after parsing.
func (lx *lexer) rawXMLFragment() (string, error) {
	if lx.hasPeek {
		lx.resetTo(lx.peeked.pos)
	}
	lx.skipSpace()
	if lx.pos >= len(lx.input) || lx.input[lx.pos] != '<' {
		return "", lx.errorf(lx.pos, "expected XML fragment")
	}
	start := lx.pos
	depth := 0
	i := lx.pos
	for i < len(lx.input) {
		if lx.input[i] != '<' {
			i++
			continue
		}
		if i+1 < len(lx.input) && lx.input[i+1] == '/' {
			// Closing tag.
			end := strings.IndexByte(lx.input[i:], '>')
			if end < 0 {
				return "", lx.errorf(i, "unterminated closing tag")
			}
			depth--
			i += end + 1
			if depth == 0 {
				lx.pos = i
				return lx.input[start:i], nil
			}
			continue
		}
		// Opening tag (or self-closing).
		end := strings.IndexByte(lx.input[i:], '>')
		if end < 0 {
			return "", lx.errorf(i, "unterminated tag")
		}
		selfClosing := end >= 1 && lx.input[i+end-1] == '/'
		if !selfClosing {
			depth++
		} else if depth == 0 {
			lx.pos = i + end + 1
			return lx.input[start : i+end+1], nil
		}
		i += end + 1
	}
	return "", lx.errorf(start, "unbalanced XML fragment")
}
