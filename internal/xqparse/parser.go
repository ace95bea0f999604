package xqparse

import (
	"strconv"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// ParseViewQuery parses a view definition of the Fig. 3(a) shape: a root
// element tag wrapping a comma-separated sequence of FLWR expressions,
// element constructors and projections.
func ParseViewQuery(input string) (*ViewQuery, error) {
	lx := newLexer(input)
	if _, err := lx.expect(tokLT); err != nil {
		return nil, err
	}
	rootTok, err := lx.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := lx.expect(tokGT); err != nil {
		return nil, err
	}
	p := &parser{lx: lx}
	items, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, err := lx.expect(tokLTSlash); err != nil {
		return nil, err
	}
	closeTok, err := lx.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(closeTok.text, rootTok.text) {
		return nil, lx.errorf(closeTok.pos, "mismatched root tag: <%s> closed by </%s>", rootTok.text, closeTok.text)
	}
	if _, err := lx.expect(tokGT); err != nil {
		return nil, err
	}
	if t, err := lx.peek(); err != nil {
		return nil, err
	} else if t.kind != tokEOF {
		return nil, lx.errorf(t.pos, "trailing input after view query: %q", t.text)
	}
	return &ViewQuery{RootTag: rootTok.text, Items: items}, nil
}

type parser struct {
	lx *lexer
}

// parseBody parses a comma-separated item sequence, stopping before '</'
// or '}' or EOF.
func (p *parser) parseBody() ([]BodyItem, error) {
	var items []BodyItem
	for {
		t, err := p.lx.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokLTSlash || t.kind == tokRBrace || t.kind == tokEOF {
			return items, nil
		}
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		t, err = p.lx.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokComma {
			p.lx.next()
			continue
		}
		// Item sequences may also be juxtaposed without commas.
	}
}

// parseItem dispatches on the lookahead token.
func (p *parser) parseItem() (BodyItem, error) {
	t, err := p.lx.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case t.kind == tokIdent && strings.EqualFold(t.text, "FOR"):
		return p.parseFLWR()
	case t.kind == tokLT:
		return p.parseConstructor()
	case t.kind == tokVariable:
		return p.parseProjection()
	case t.kind == tokString:
		p.lx.next()
		return &TextLiteral{Value: t.text}, nil
	default:
		return nil, p.lx.errorf(t.pos, "unexpected %s %q in view body", t.kind, t.text)
	}
}

// parseFLWR parses FOR bindings (WHERE conds)? RETURN { body }.
func (p *parser) parseFLWR() (*FLWR, error) {
	if err := p.lx.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	bindings, err := p.parseBindings()
	if err != nil {
		return nil, err
	}
	var preds []Pred
	if p.lx.peekKeyword("WHERE") {
		p.lx.next()
		preds, err = p.parsePreds()
		if err != nil {
			return nil, err
		}
	}
	if err := p.lx.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	if _, err := p.lx.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, err := p.lx.expect(tokRBrace); err != nil {
		return nil, err
	}
	return &FLWR{Bindings: bindings, Preds: preds, Return: body}, nil
}

// parseBindings parses $v IN source (, $v IN source)*. The let-style
// "=" form (u9's "$book = $root/book") is accepted alongside IN.
func (p *parser) parseBindings() ([]Binding, error) {
	var out []Binding
	for {
		v, err := p.lx.expect(tokVariable)
		if err != nil {
			return nil, err
		}
		t, err := p.lx.next()
		if err != nil {
			return nil, err
		}
		if !(t.kind == tokEQ || (t.kind == tokIdent && strings.EqualFold(t.text, "IN"))) {
			return nil, p.lx.errorf(t.pos, "expected IN or = in binding of $%s, found %q", v.text, t.text)
		}
		src, err := p.parseSource()
		if err != nil {
			return nil, err
		}
		out = append(out, Binding{Var: v.text, Source: src})
		t, err = p.lx.peek()
		if err != nil {
			return nil, err
		}
		if t.kind != tokComma {
			return out, nil
		}
		p.lx.next()
	}
}

// parseSource parses document("name")/steps or $var/steps.
func (p *parser) parseSource() (Source, error) {
	t, err := p.lx.next()
	if err != nil {
		return Source{}, err
	}
	var src Source
	switch {
	case t.kind == tokIdent && strings.EqualFold(t.text, "document"):
		if _, err := p.lx.expect(tokLParen); err != nil {
			return Source{}, err
		}
		doc, err := p.lx.expect(tokString)
		if err != nil {
			return Source{}, err
		}
		if _, err := p.lx.expect(tokRParen); err != nil {
			return Source{}, err
		}
		src.Doc = doc.text
	case t.kind == tokVariable:
		src.Var = t.text
	default:
		return Source{}, p.lx.errorf(t.pos, "expected document(...) or variable in binding source, found %q", t.text)
	}
	for {
		t, err := p.lx.peek()
		if err != nil {
			return Source{}, err
		}
		if t.kind != tokSlash {
			return src, nil
		}
		p.lx.next()
		step, err := p.lx.expect(tokIdent)
		if err != nil {
			return Source{}, err
		}
		src.Steps = append(src.Steps, step.text)
	}
}

// parsePreds parses cond (AND cond)*.
func (p *parser) parsePreds() ([]Pred, error) {
	var out []Pred
	for {
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		out = append(out, pred)
		if !p.lx.peekKeyword("AND") {
			return out, nil
		}
		p.lx.next()
	}
}

// parsePred parses (operand op operand), parentheses optional.
func (p *parser) parsePred() (Pred, error) {
	t, err := p.lx.peek()
	if err != nil {
		return Pred{}, err
	}
	paren := false
	if t.kind == tokLParen {
		p.lx.next()
		paren = true
	}
	left, err := p.parseOperand()
	if err != nil {
		return Pred{}, err
	}
	opTok, err := p.lx.next()
	if err != nil {
		return Pred{}, err
	}
	op, ok := compareOp(opTok.kind)
	if !ok {
		return Pred{}, p.lx.errorf(opTok.pos, "expected comparison operator, found %q", opTok.text)
	}
	right, err := p.parseOperand()
	if err != nil {
		return Pred{}, err
	}
	if paren {
		if _, err := p.lx.expect(tokRParen); err != nil {
			return Pred{}, err
		}
	}
	return Pred{Left: left, Op: op, Right: right}, nil
}

// parseOperand parses $var(/field)*(/text())? or a literal.
func (p *parser) parseOperand() (PredOperand, error) {
	t, err := p.lx.next()
	if err != nil {
		return PredOperand{}, err
	}
	switch t.kind {
	case tokVariable:
		o := PredOperand{Var: t.text}
		for {
			nt, err := p.lx.peek()
			if err != nil {
				return PredOperand{}, err
			}
			if nt.kind != tokSlash {
				return o, nil
			}
			p.lx.next()
			step, err := p.lx.expect(tokIdent)
			if err != nil {
				return PredOperand{}, err
			}
			if strings.EqualFold(step.text, "text") {
				if _, err := p.lx.expect(tokLParen); err != nil {
					return PredOperand{}, err
				}
				if _, err := p.lx.expect(tokRParen); err != nil {
					return PredOperand{}, err
				}
				return o, nil
			}
			if o.Field != "" {
				o.Field += "/" + step.text
			} else {
				o.Field = step.text
			}
		}
	case tokString:
		return PredOperand{IsLiteral: true, Lit: relational.String_(t.text)}, nil
	case tokNumber:
		return PredOperand{IsLiteral: true, Lit: parseNumber(t.text)}, nil
	default:
		return PredOperand{}, p.lx.errorf(t.pos, "expected operand, found %q", t.text)
	}
}

// compareOp maps a comparison token to its operator.
func compareOp(k tokenKind) (relational.CompareOp, bool) {
	switch k {
	case tokEQ:
		return relational.OpEQ, true
	case tokNE:
		return relational.OpNE, true
	case tokLT:
		return relational.OpLT, true
	case tokLE:
		return relational.OpLE, true
	case tokGT:
		return relational.OpGT, true
	case tokGE:
		return relational.OpGE, true
	}
	return 0, false
}

// parseNumber maps a number token to an integer, or to a float when it
// has a fraction or overflows int64.
func parseNumber(s string) relational.Value {
	if strings.IndexByte(s, '.') < 0 {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return relational.Int_(i)
		}
	}
	f, _ := strconv.ParseFloat(s, 64)
	return relational.Float_(f)
}

// parseConstructor parses <tag> items </tag>.
func (p *parser) parseConstructor() (*Constructor, error) {
	if _, err := p.lx.expect(tokLT); err != nil {
		return nil, err
	}
	tag, err := p.lx.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.lx.expect(tokGT); err != nil {
		return nil, err
	}
	items, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, err := p.lx.expect(tokLTSlash); err != nil {
		return nil, err
	}
	closeTok, err := p.lx.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(closeTok.text, tag.text) {
		return nil, p.lx.errorf(closeTok.pos, "mismatched tag: <%s> closed by </%s>", tag.text, closeTok.text)
	}
	if _, err := p.lx.expect(tokGT); err != nil {
		return nil, err
	}
	return &Constructor{Tag: tag.text, Items: items}, nil
}

// parseProjection parses $var/field(/text())?.
func (p *parser) parseProjection() (*Projection, error) {
	o, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if o.IsLiteral || o.Field == "" {
		return nil, p.lx.errorf(0, "expected projection of the form $var/field")
	}
	return &Projection{Var: o.Var, Field: o.Field}, nil
}

// ParseUpdate parses a view update in the Fig. 4 / Fig. 10 syntax:
//
//	FOR $v IN source (, $v IN source)*
//	(WHERE cond (AND cond)*)?
//	UPDATE $target { op (, op)* }
//
// where op is DELETE $v/path(/text())?, INSERT <fragment>, or
// REPLACE $v/path WITH <fragment>.
func ParseUpdate(input string) (*UpdateQuery, error) {
	lx := newLexer(input)
	p := &parser{lx: lx}
	if err := lx.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	bindings, err := p.parseBindings()
	if err != nil {
		return nil, err
	}
	var preds []Pred
	if lx.peekKeyword("WHERE") {
		lx.next()
		preds, err = p.parsePreds()
		if err != nil {
			return nil, err
		}
	}
	if err := lx.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	target, err := lx.expect(tokVariable)
	if err != nil {
		return nil, err
	}
	if _, err := lx.expect(tokLBrace); err != nil {
		return nil, err
	}
	var ops []UpdateOp
	for {
		t, err := lx.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokRBrace {
			lx.next()
			break
		}
		if t.kind == tokComma {
			lx.next()
			continue
		}
		op, err := p.parseUpdateOp()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if t, err := lx.peek(); err != nil {
		return nil, err
	} else if t.kind != tokEOF {
		return nil, lx.errorf(t.pos, "trailing input after update: %q", t.text)
	}
	if len(ops) == 0 {
		return nil, lx.errorf(0, "update contains no operations")
	}
	return &UpdateQuery{Bindings: bindings, Preds: preds, TargetVar: target.text, Ops: ops}, nil
}

func (p *parser) parseUpdateOp() (UpdateOp, error) {
	t, err := p.lx.next()
	if err != nil {
		return UpdateOp{}, err
	}
	if t.kind != tokIdent {
		return UpdateOp{}, p.lx.errorf(t.pos, "expected DELETE, INSERT or REPLACE, found %q", t.text)
	}
	switch {
	case strings.EqualFold(t.text, "DELETE"):
		v, path, textOnly, err := p.parseUpdatePath()
		if err != nil {
			return UpdateOp{}, err
		}
		return UpdateOp{Kind: OpDelete, PathVar: v, Path: path, TextOnly: textOnly}, nil
	case strings.EqualFold(t.text, "INSERT"):
		frag, err := p.parseFragment()
		if err != nil {
			return UpdateOp{}, err
		}
		return UpdateOp{Kind: OpInsert, Content: frag}, nil
	case strings.EqualFold(t.text, "REPLACE"):
		v, path, textOnly, err := p.parseUpdatePath()
		if err != nil {
			return UpdateOp{}, err
		}
		if err := p.lx.expectKeyword("WITH"); err != nil {
			return UpdateOp{}, err
		}
		frag, err := p.parseFragment()
		if err != nil {
			return UpdateOp{}, err
		}
		return UpdateOp{Kind: OpReplace, PathVar: v, Path: path, TextOnly: textOnly, Content: frag}, nil
	default:
		return UpdateOp{}, p.lx.errorf(t.pos, "expected DELETE, INSERT or REPLACE, found %q", t.text)
	}
}

// parseUpdatePath parses $var(/step)*(/text())?.
func (p *parser) parseUpdatePath() (string, []string, bool, error) {
	v, err := p.lx.expect(tokVariable)
	if err != nil {
		return "", nil, false, err
	}
	var path []string
	textOnly := false
	for {
		t, err := p.lx.peek()
		if err != nil {
			return "", nil, false, err
		}
		if t.kind != tokSlash {
			return v.text, path, textOnly, nil
		}
		p.lx.next()
		step, err := p.lx.expect(tokIdent)
		if err != nil {
			return "", nil, false, err
		}
		if strings.EqualFold(step.text, "text") {
			if _, err := p.lx.expect(tokLParen); err != nil {
				return "", nil, false, err
			}
			if _, err := p.lx.expect(tokRParen); err != nil {
				return "", nil, false, err
			}
			textOnly = true
			return v.text, path, textOnly, nil
		}
		path = append(path, step.text)
	}
}

// parseFragment extracts a balanced XML element from the raw input and
// parses it, stripping quote characters that the paper's syntax places
// around leaf values (<bookid>"98004"</bookid>).
func (p *parser) parseFragment() (*xmltree.Node, error) {
	raw, err := p.lx.rawXMLFragment()
	if err != nil {
		return nil, err
	}
	node, err := xmltree.Parse(raw)
	if err != nil {
		return nil, err
	}
	stripQuotes(node)
	return node, nil
}

func stripQuotes(n *xmltree.Node) {
	if !n.IsElement() {
		n.Text = unquote(n.Text)
		return
	}
	for _, c := range n.Children {
		stripQuotes(c)
	}
}

// unquote trims a fragment text and strips one pair of the quotes the
// paper's syntax places around leaf values.
func unquote(s string) string {
	s = strings.TrimSpace(s)
	if s == "" || s[0] != '"' && s[0] != '\'' && s[0] != "“"[0] {
		return s // no opening quote
	}
	for _, pair := range [...][2]string{{`"`, `"`}, {`'`, `'`}, {"“", "”"}} {
		if strings.HasPrefix(s, pair[0]) && strings.HasSuffix(s, pair[1]) && len(s) >= len(pair[0])+len(pair[1]) {
			return strings.TrimSpace(s[len(pair[0]) : len(s)-len(pair[1])])
		}
	}
	return s
}
