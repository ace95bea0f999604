package xqparse

import (
	"strconv"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// The template key of an update: everything the schema-level steps
// decide reads the template only — operation kinds, view paths,
// predicate shapes, fragment element structure — so the key strips what
// varies between instances: literals collapse to their kind, fragments
// to their element structure. Its format is written by the helpers
// below, which both (*UpdateQuery).AppendKey and ScanUpdate call:
//
//	b:$<var>=<source>           one line per binding
//	p:<operand> <op> <operand>  one line per predicate; a literal is lit#<kind>
//	t:$<var>                    the update target
//	o:<KIND>[ $<var>/<step>…[/text()]][ <name>…</>…]  one line per operation

// Line prefixes of the key.
const (
	keyBinding = "b:"
	keyPred    = "p:"
	keyTarget  = "t:"
)

// keyVar appends a line prefix (or a space) and a variable.
func keyVar(dst []byte, prefix, v string) []byte {
	return append(append(append(dst, prefix...), '$'), v...)
}

// keyDoc appends a document source root, its name quoted as
// strconv.Quote does; a name of printable ASCII without a quote or a
// backslash, which that leaves as it is, is copied.
func keyDoc(dst []byte, doc string) []byte {
	dst = append(dst, "document("...)
	for i := 0; i < len(doc); i++ {
		if c := doc[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return append(strconv.AppendQuote(dst, doc), ')')
		}
	}
	return append(append(append(append(dst, '"'), doc...), '"'), ')')
}

// keyStep, keyText, keyLit, keyOp, keyOpen and keyClose append a path
// step, a trailing /text(), a literal stripped to its kind, the start
// of an operation line, and the brackets of one fragment element.
func keyStep(dst []byte, step string) []byte { return append(append(dst, '/'), step...) }
func keyText(dst []byte) []byte              { return append(dst, "/text()"...) }
func keyLit(dst []byte, k relational.ValueKind) []byte {
	return append(append(dst, "lit#"...), kindTag(k)...)
}
func keyOp(dst []byte, k UpdateOpKind) []byte { return append(append(dst, "o:"...), k.String()...) }
func keyOpen(dst []byte, name string) []byte  { return append(append(append(dst, '<'), name...), '>') }
func keyClose(dst []byte) []byte              { return append(dst, "</>"...) }

// keyCompare appends a predicate's comparison operator between its
// operands.
func keyCompare(dst []byte, op relational.CompareOp) []byte {
	return append(append(append(dst, ' '), op.String()...), ' ')
}

// kindTag is a short stable name for a literal's value kind.
func kindTag(k relational.ValueKind) string {
	if tags := [...]string{relational.KindNull: "null", relational.KindString: "str",
		relational.KindInt: "int", relational.KindFloat: "float"}; int(k) < len(tags) {
		return tags[k]
	}
	return "other"
}

// appendTo appends the source in XQuery syntax (see String).
func (s Source) appendTo(dst []byte) []byte {
	if s.Var == "" {
		dst = keyDoc(dst, s.Doc)
	} else {
		dst = keyVar(dst, "", s.Var)
	}
	for _, st := range s.Steps {
		dst = keyStep(dst, st)
	}
	return dst
}

// AppendKey appends u's template key to dst: the plan cache's key, equal
// for every instance of a template and for nothing else.
func (u *UpdateQuery) AppendKey(dst []byte) []byte {
	for _, bd := range u.Bindings {
		dst = append(keyVar(dst, keyBinding, bd.Var), '=')
		dst = append(bd.Source.appendTo(dst), '\n')
	}
	for _, p := range u.Preds {
		dst = append(dst, keyPred...)
		dst = p.Left.appendShape(dst)
		dst = keyCompare(dst, p.Op)
		dst = append(p.Right.appendShape(dst), '\n')
	}
	dst = append(keyVar(dst, keyTarget, u.TargetVar), '\n')
	for _, op := range u.Ops {
		dst = keyOp(dst, op.Kind)
		if op.PathVar != "" {
			dst = keyVar(dst, " ", op.PathVar)
		}
		for _, st := range op.Path {
			dst = keyStep(dst, st)
		}
		if op.TextOnly {
			dst = keyText(dst)
		}
		if op.Content != nil {
			dst = appendFragment(append(dst, ' '), op.Content)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendShape appends an operand with its literal value stripped.
func (o PredOperand) appendShape(dst []byte) []byte {
	if o.IsLiteral {
		return keyLit(dst, o.Lit.Kind)
	}
	dst = keyVar(dst, "", o.Var)
	if o.Field != "" {
		dst = keyStep(dst, o.Field)
	}
	return dst
}

// appendFragment appends a fragment's element structure in document
// order; its text stays out of the key.
func appendFragment(dst []byte, n *xmltree.Node) []byte {
	if !n.IsElement() {
		return dst
	}
	dst = keyOpen(dst, n.Name)
	for _, c := range n.Children {
		dst = appendFragment(dst, c)
	}
	return keyClose(dst)
}
