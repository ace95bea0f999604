package xqparse

import (
	"strings"

	"repro/internal/relational"
)

// Scanned is what ScanUpdate reports about one update text. The buffers
// belong to the caller and are reused across calls; string values alias
// the scanned text.
type Scanned struct {
	// Key is the update's template key: what AppendKey writes for the
	// update ParseUpdate builds from the same text.
	Key []byte
	// Lits are the predicate literals in predicate order, left operand
	// before right — the order UpdatePlan.BindArgs lists them in.
	Lits []relational.Value
	// Texts holds the text of every leaf element (an element without
	// element children) of every fragment, in document order, trimmed and
	// quote-stripped as the parser leaves it.
	Texts []string
}

// ScanUpdate reads an update in one pass, without building an AST and,
// once s's buffers have grown, without allocating (a leaf text holding
// an entity reference is decoded into a fresh string). It covers
// ParseUpdate's grammar over a plain subset of texts and declines
// (returns false) on anything outside it: a byte outside printable ASCII,
// tab, newline and carriage return; and inside a fragment an '&' that
// does not start one of XML's five predefined entity references, "<!",
// "<?", "]]>", a carriage return, attributes, self-closing tags, names
// with ':' and fragments nested deeper than maxDepth. Declining is always
// safe: the caller parses. Accepting implies ParseUpdate succeeds on text
// with the same key, literals and leaf texts.
func ScanUpdate(text string, s *Scanned) bool {
	s.Key, s.Lits, s.Texts = s.Key[:0], s.Lits[:0], s.Texts[:0]
	if !plain(text) { // every byte is a token's, a fragment's or space
		return false
	}
	sc := scanner{lx: lexer{input: text}, s: s}
	sc.advance()
	return sc.update() && !sc.bad
}

// maxDepth bounds the element nesting of a fragment ScanUpdate accepts.
const maxDepth = 32

// scanner walks the parser's tokens with one token of lookahead and no
// AST. It shares the parser's lexer, so every token it accepts is the
// token the parser reads.
type scanner struct {
	lx  lexer
	tok token // the current token
	bad bool  // a token failed to lex or left the plain subset
	s   *Scanned

	open [maxDepth]string // names of the fragment's open elements
}

// advance moves to the next token. A lexing error ends the scan: the
// token becomes end of input and the text is declined.
func (sc *scanner) advance() {
	if err := sc.lx.scan(&sc.tok); err != nil {
		sc.bad = true
		sc.tok = token{kind: tokEOF, pos: sc.lx.pos}
	}
}

// plain reports whether s holds only printable ASCII, tabs and line
// breaks. It reads eight bytes at a time and looks at the bytes of a
// word one by one only when one of them is below ' ' or above '~'.
func plain(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		if (x-ones*' ')&^x&highs == 0 && ((x+ones)|x)&highs == 0 {
			continue // every byte in ' '..'~'
		}
		if !plainBytes(w) {
			return false
		}
	}
	return plainBytes(s[i:])
}

// plainBytes is plain a byte at a time.
func plainBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x7f || c < ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// keyword consumes the keyword kw, reporting whether it was there.
func (sc *scanner) keyword(kw string) bool {
	if sc.tok.kind != tokIdent || !foldsTo(sc.tok.text, kw) {
		return false
	}
	sc.advance()
	return true
}

// foldsTo reports whether the plain text s equals the ASCII word kw
// under case folding: strings.EqualFold's verdict, as only non-ASCII
// letters fold otherwise.
func foldsTo(s, kw string) bool {
	if len(s) != len(kw) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c, k := s[i], kw[i]; c != k && (c|0x20 != k|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	return true
}

// take consumes a token of kind k, reporting whether it was there.
func (sc *scanner) take(k tokenKind) bool {
	if sc.tok.kind != k {
		return false
	}
	sc.advance()
	return true
}

// name consumes an identifier or variable token and returns its text, ""
// when the current token is not of kind k (neither kind lexes empty).
func (sc *scanner) name(k tokenKind) string {
	if sc.tok.kind != k {
		return ""
	}
	text := sc.tok.text
	sc.advance()
	return text
}

// update mirrors ParseUpdate.
func (sc *scanner) update() bool {
	if !sc.keyword("FOR") || !sc.bindings() {
		return false
	}
	if sc.keyword("WHERE") && !sc.preds() {
		return false
	}
	if !sc.keyword("UPDATE") {
		return false
	}
	target := sc.name(tokVariable)
	if target == "" || !sc.take(tokLBrace) {
		return false
	}
	sc.s.Key = append(keyVar(sc.s.Key, keyTarget, target), '\n')
	ops := 0
	for !sc.take(tokRBrace) {
		if sc.take(tokComma) {
			continue
		}
		if !sc.op() {
			return false
		}
		ops++
	}
	return ops > 0 && sc.tok.kind == tokEOF
}

// bindings mirrors parseBindings and parseSource.
func (sc *scanner) bindings() bool {
	s := sc.s
	for {
		v := sc.name(tokVariable)
		if v == "" || !sc.take(tokEQ) && !sc.keyword("IN") {
			return false
		}
		s.Key = append(keyVar(s.Key, keyBinding, v), '=')
		if sc.keyword("document") {
			if !sc.take(tokLParen) || sc.tok.kind != tokString {
				return false
			}
			s.Key = keyDoc(s.Key, sc.tok.text)
			sc.advance()
			if !sc.take(tokRParen) {
				return false
			}
		} else if root := sc.name(tokVariable); root != "" {
			s.Key = keyVar(s.Key, "", root)
		} else {
			return false
		}
		for sc.take(tokSlash) {
			step := sc.name(tokIdent)
			if step == "" {
				return false
			}
			s.Key = keyStep(s.Key, step)
		}
		s.Key = append(s.Key, '\n')
		if !sc.take(tokComma) {
			return true
		}
	}
}

// preds mirrors parsePreds and parsePred.
func (sc *scanner) preds() bool {
	s := sc.s
	for {
		paren := sc.take(tokLParen)
		s.Key = append(s.Key, keyPred...)
		if !sc.operand() {
			return false
		}
		op, ok := compareOp(sc.tok.kind)
		if !ok {
			return false
		}
		sc.advance()
		s.Key = keyCompare(s.Key, op)
		if !sc.operand() || paren && !sc.take(tokRParen) {
			return false
		}
		s.Key = append(s.Key, '\n')
		if !sc.keyword("AND") {
			return true
		}
	}
}

// operand mirrors parseOperand.
func (sc *scanner) operand() bool {
	s := sc.s
	switch sc.tok.kind {
	case tokVariable:
		s.Key = keyVar(s.Key, "", sc.tok.text)
		sc.advance()
		_, ok := sc.path()
		return ok
	case tokString:
		s.Lits = append(s.Lits, relational.String_(sc.tok.text))
	case tokNumber:
		s.Lits = append(s.Lits, parseNumber(sc.tok.text))
	default:
		return false
	}
	s.Key = keyLit(s.Key, s.Lits[len(s.Lits)-1].Kind)
	sc.advance()
	return true
}

// path mirrors the (/step)*(/text())? tail of parseOperand and
// parseUpdatePath, appending the steps to the key; textOnly reports a
// trailing /text(), which the caller keys or not.
func (sc *scanner) path() (textOnly, ok bool) {
	for sc.take(tokSlash) {
		step := sc.name(tokIdent)
		switch {
		case step == "":
			return false, false
		case foldsTo(step, "text"):
			return true, sc.take(tokLParen) && sc.take(tokRParen)
		}
		sc.s.Key = keyStep(sc.s.Key, step)
	}
	return false, true
}

// op mirrors parseUpdateOp.
func (sc *scanner) op() bool {
	kind := OpDelete
	switch {
	case sc.keyword("DELETE"):
	case sc.keyword("INSERT"):
		kind = OpInsert
	case sc.keyword("REPLACE"):
		kind = OpReplace
	default:
		return false
	}
	s := sc.s
	s.Key = keyOp(s.Key, kind)
	if kind != OpInsert {
		v := sc.name(tokVariable)
		if v == "" {
			return false
		}
		s.Key = keyVar(s.Key, " ", v)
		textOnly, ok := sc.path()
		if !ok {
			return false
		}
		if textOnly {
			s.Key = keyText(s.Key)
		}
	}
	if kind == OpReplace && !sc.keyword("WITH") {
		return false
	}
	if kind != OpDelete {
		s.Key = append(s.Key, ' ')
		if !sc.fragment() {
			return false
		}
	}
	s.Key = append(s.Key, '\n')
	return true
}

// fragment mirrors parseFragment over an element-only fragment starting
// at the current token: <name> and </name> tags and text between them.
// It keys the element structure and reports each leaf element's text.
func (sc *scanner) fragment() bool {
	if sc.tok.kind != tokLT {
		return false
	}
	in, i := sc.lx.input, sc.tok.pos
	depth, leaf, text, escaped := 0, false, 0, false
	for {
		// in[i] is '<'.
		closing := i+1 < len(in) && in[i+1] == '/'
		start := i + 1
		if closing {
			start++
		}
		end := nameEnd(in, start)
		if end == start || end == len(in) || in[end] != '>' {
			return false
		}
		name := in[start:end]
		switch {
		case closing:
			if depth == 0 || sc.open[depth-1] != name {
				return false
			}
			if depth--; leaf {
				t := in[text:i]
				if escaped {
					t = entities.Replace(t)
				}
				sc.s.Texts = append(sc.s.Texts, unquote(t))
			}
			leaf = false
			sc.s.Key = keyClose(sc.s.Key)
		case depth == maxDepth:
			return false
		default:
			sc.open[depth] = name
			depth++
			leaf = true
			sc.s.Key = keyOpen(sc.s.Key, name)
		}
		i = end + 1
		if depth == 0 {
			break
		}
		escaped = false
		for text = i; i < len(in) && in[i] != '<'; i++ {
			switch in[i] {
			case '&':
				n := entityLen(in[i:])
				if n == 0 {
					return false
				}
				i += n - 1
				escaped = true
			case '\r':
				return false
			case ']':
				if strings.HasPrefix(in[i:], "]]>") {
					return false
				}
			}
		}
		if i == len(in) {
			return false
		}
	}
	sc.lx.pos = i
	sc.advance()
	return true
}

// entities decodes XML's predefined entity references, as the XML
// decoder does.
var entities = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&apos;", "'")

// entityLen returns the length of the predefined entity reference s
// starts with, 0 when it starts with none.
func entityLen(s string) int {
	for _, e := range [...]string{"&amp;", "&lt;", "&gt;", "&quot;", "&apos;"} {
		if strings.HasPrefix(s, e) {
			return len(e)
		}
	}
	return 0
}

// nameEnd returns the end of the ASCII XML name starting at s[i] — an
// identifier, as the lexer reads one — or i when none starts there.
func nameEnd(s string, i int) int {
	if i >= len(s) || s[i] >= 0x80 || identClass[s[i]]&identStart == 0 {
		return i
	}
	j := i + 1
	for j < len(s) && s[j] < 0x80 && identClass[s[j]]&identPart != 0 {
		j++
	}
	return j
}
