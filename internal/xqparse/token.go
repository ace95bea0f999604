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
	for lx.pos < len(lx.input) {
		r := lx.input[lx.pos]
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			lx.pos++
			continue
		}
		break
	}
}

// peek returns the next token without consuming it.
func (lx *lexer) peek() (token, error) {
	if lx.hasPeek {
		return lx.peeked, nil
	}
	t, err := lx.scan()
	if err != nil {
		return token{}, err
	}
	lx.peeked, lx.hasPeek = t, true
	return t, nil
}

// next consumes and returns the next token.
func (lx *lexer) next() (token, error) {
	if lx.hasPeek {
		lx.hasPeek = false
		return lx.peeked, nil
	}
	return lx.scan()
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

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

// scan produces the next token from the input.
func (lx *lexer) scan() (token, error) {
	lx.skipSpace()
	if lx.pos >= len(lx.input) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.input[lx.pos]
	switch {
	case c == '(':
		lx.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		lx.pos++
		return token{tokRParen, ")", start}, nil
	case c == '{':
		lx.pos++
		return token{tokLBrace, "{", start}, nil
	case c == '}':
		lx.pos++
		return token{tokRBrace, "}", start}, nil
	case c == ',':
		lx.pos++
		return token{tokComma, ",", start}, nil
	case c == '/':
		lx.pos++
		return token{tokSlash, "/", start}, nil
	case c == '=':
		lx.pos++
		return token{tokEQ, "=", start}, nil
	case c == '!':
		if lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '=' {
			lx.pos += 2
			return token{tokNE, "!=", start}, nil
		}
		return token{}, lx.errorf(start, "unexpected '!'")
	case c == '<':
		if lx.pos+1 < len(lx.input) {
			switch lx.input[lx.pos+1] {
			case '/':
				lx.pos += 2
				return token{tokLTSlash, "</", start}, nil
			case '=':
				lx.pos += 2
				return token{tokLE, "<=", start}, nil
			case '>':
				lx.pos += 2
				return token{tokNE, "<>", start}, nil
			}
		}
		lx.pos++
		return token{tokLT, "<", start}, nil
	case c == '>':
		if lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '=' {
			lx.pos += 2
			return token{tokGE, ">=", start}, nil
		}
		lx.pos++
		return token{tokGT, ">", start}, nil
	case c == '$':
		lx.pos++
		j := lx.pos
		for j < len(lx.input) && isIdentPart(rune(lx.input[j])) {
			j++
		}
		if j == lx.pos {
			return token{}, lx.errorf(start, "empty variable name after '$'")
		}
		name := lx.input[lx.pos:j]
		lx.pos = j
		return token{tokVariable, name, start}, nil
	case c == '"' || c == '\'':
		quote := c
		j := lx.pos + 1
		for j < len(lx.input) && lx.input[j] != quote {
			j++
		}
		if j >= len(lx.input) {
			return token{}, lx.errorf(start, "unterminated string literal")
		}
		text := lx.input[lx.pos+1 : j]
		lx.pos = j + 1
		return token{tokString, text, start}, nil
	case strings.HasPrefix(lx.input[lx.pos:], "“"): // left curly quote
		j := lx.pos + len("“")
		end := strings.Index(lx.input[j:], "”")
		if end < 0 {
			return token{}, lx.errorf(start, "unterminated curly-quoted string")
		}
		text := lx.input[j : j+end]
		lx.pos = j + end + len("”")
		return token{tokString, text, start}, nil
	case c >= '0' && c <= '9' || (c == '-' && lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] >= '0' && lx.input[lx.pos+1] <= '9'):
		j := lx.pos + 1
		seenDot := false
		for j < len(lx.input) {
			d := lx.input[j]
			if d >= '0' && d <= '9' {
				j++
				continue
			}
			if d == '.' && !seenDot && j+1 < len(lx.input) && lx.input[j+1] >= '0' && lx.input[j+1] <= '9' {
				seenDot = true
				j++
				continue
			}
			break
		}
		text := lx.input[lx.pos:j]
		lx.pos = j
		return token{tokNumber, text, start}, nil
	case isIdentStart(rune(c)):
		j := lx.pos + 1
		for j < len(lx.input) && isIdentPart(rune(lx.input[j])) {
			j++
		}
		text := lx.input[lx.pos:j]
		lx.pos = j
		return token{tokIdent, text, start}, nil
	default:
		return token{}, lx.errorf(start, "unexpected character %q", string(rune(c)))
	}
}

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
