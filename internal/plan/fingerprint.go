package plan

import (
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xqparse"
)

// Fingerprinting for the plan cache. Everything the schema-level steps
// decide from the view alone is a function of the update's *template*:
// the same operation kinds against the same view paths with the same
// predicate shapes and the same fragment element structure resolve,
// classify under STAR and translate identically. What varies between
// instances of a template is values only — predicate literals and
// content values (the leaf text of an inserted or replacing fragment) —
// and every value-dependent decision (literal and content coercion, the
// Step 1 overlap test, NOT NULL and CHECK annotations, shared-part keys)
// is derived at bind time off the resident plan. The fingerprint
// therefore has predicate literals and content values stripped: literals
// collapse to their kind, fragments to their element structure.

// fingerprint canonically encodes the template of a parsed update:
// bindings, predicate shapes (literal values stripped, kinds kept), the
// update target, and each operation with its path and — for
// content-bearing operations — the fragment's element structure (text
// stripped).
func fingerprint(u *xqparse.UpdateQuery) string {
	var b strings.Builder
	b.Grow(256) // most keys fit: one allocation per request
	for _, bd := range u.Bindings {
		b.WriteString("b:$")
		b.WriteString(bd.Var)
		b.WriteByte('=')
		b.WriteString(bd.Source.String())
		b.WriteByte('\n')
	}
	for _, p := range u.Preds {
		b.WriteString("p:")
		writeOperandShape(&b, p.Left)
		b.WriteByte(' ')
		b.WriteString(p.Op.String())
		b.WriteByte(' ')
		writeOperandShape(&b, p.Right)
		b.WriteByte('\n')
	}
	b.WriteString("t:$")
	b.WriteString(u.TargetVar)
	b.WriteByte('\n')
	for _, op := range u.Ops {
		b.WriteString("o:")
		b.WriteString(op.Kind.String())
		if op.PathVar != "" {
			b.WriteString(" $")
			b.WriteString(op.PathVar)
		}
		for _, st := range op.Path {
			b.WriteByte('/')
			b.WriteString(st)
		}
		if op.TextOnly {
			b.WriteString("/text()")
		}
		if op.Content != nil {
			b.WriteByte(' ')
			writeFragmentShape(&b, op.Content)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeOperandShape encodes one predicate operand with its literal value
// stripped: paths stay verbatim, literals collapse to their kind.
func writeOperandShape(b *strings.Builder, o xqparse.PredOperand) {
	if o.IsLiteral {
		b.WriteString("lit#")
		b.WriteString(kindTag(o.Lit.Kind))
		return
	}
	b.WriteByte('$')
	b.WriteString(o.Var)
	if o.Field != "" {
		b.WriteByte('/')
		b.WriteString(o.Field)
	}
}

// kindTag is a short stable name for a literal's value kind.
func kindTag(k relational.ValueKind) string {
	switch k {
	case relational.KindNull:
		return "null"
	case relational.KindString:
		return "str"
	case relational.KindInt:
		return "int"
	case relational.KindFloat:
		return "float"
	default:
		return "other"
	}
}

// writeFragmentShape serializes the element structure of an
// insert/replace fragment in document order. Text nodes are content
// values and stay out of the key.
func writeFragmentShape(b *strings.Builder, n *xmltree.Node) {
	if !n.IsElement() {
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	b.WriteByte('>')
	for _, c := range n.Children {
		writeFragmentShape(b, c)
	}
	b.WriteString("</>")
}
