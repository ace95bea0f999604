package xqparse

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// Source is the right-hand side of a FOR/LET binding: either a document
// path (document("default.xml")/book/row) or a variable-rooted path
// ($root/book).
type Source struct {
	Doc   string   // document name; empty for variable-rooted sources
	Var   string   // root variable; empty for document sources
	Steps []string // path steps after the root
}

// Table interprets a default-XML-view document source as a relation
// name: document("default.xml")/<table>/row. It returns "" when the
// source does not have that shape.
func (s Source) Table() string {
	if s.Doc == "" || len(s.Steps) != 2 || !strings.EqualFold(s.Steps[1], "row") {
		return ""
	}
	return s.Steps[0]
}

// String renders the source in XQuery syntax. A source is a document
// source when it has no root variable (the lexer rejects an empty one),
// so document("") renders as itself.
func (s Source) String() string { return string(s.appendTo(nil)) }

// Binding is one FOR (or "=" let-style) clause: $Var IN Source.
type Binding struct {
	Var    string
	Source Source
}

// PredOperand is one side of a WHERE comparison: a literal or a path
// $Var/Field(/text()).
type PredOperand struct {
	IsLiteral bool
	Lit       relational.Value
	Var       string
	Field     string
}

// String renders the operand in XQuery syntax.
func (o PredOperand) String() string {
	if o.IsLiteral {
		if o.Lit.Kind == relational.KindString {
			return fmt.Sprintf("%q", o.Lit.Str)
		}
		return o.Lit.String()
	}
	if o.Field == "" {
		return "$" + o.Var
	}
	return "$" + o.Var + "/" + o.Field
}

// Pred is a WHERE conjunct: left op right.
type Pred struct {
	Left  PredOperand
	Op    relational.CompareOp
	Right PredOperand
}

// String renders the predicate in XQuery syntax.
func (p Pred) String() string {
	op := p.Op.String()
	if p.Op == relational.OpNE {
		op = "!="
	}
	return fmt.Sprintf("%s %s %s", p.Left, op, p.Right)
}

// IsCorrelation reports whether both sides are path expressions — the
// paper's correlation predicates (join conditions). Predicates with a
// literal side are non-correlation (local) predicates.
func (p Pred) IsCorrelation() bool {
	return !p.Left.IsLiteral && !p.Right.IsLiteral
}

// BodyItem is any item in a view-query body or RETURN clause:
// *FLWR, *Constructor, *Projection or *TextLiteral.
type BodyItem interface{ isBodyItem() }

// FLWR is a FOR-WHERE-RETURN expression.
type FLWR struct {
	Bindings []Binding
	Preds    []Pred
	Return   []BodyItem
}

func (*FLWR) isBodyItem() {}

// Constructor is a literal element constructor <Tag> items </Tag>.
type Constructor struct {
	Tag   string
	Items []BodyItem
}

func (*Constructor) isBodyItem() {}

// Projection is $Var/Field — it publishes <Field>value</Field> from the
// bound relation's column Field.
type Projection struct {
	Var   string
	Field string
}

func (*Projection) isBodyItem() {}

// TextLiteral is constant text content inside a constructor.
type TextLiteral struct {
	Value string
}

func (*TextLiteral) isBodyItem() {}

// ViewQuery is a parsed view definition: a root tag wrapping a sequence
// of body items (Fig. 3(a)).
type ViewQuery struct {
	RootTag string
	Items   []BodyItem
}

// UpdateOpKind enumerates the update operation types of the update
// grammar (replace is treated as delete-then-insert downstream, per the
// paper's footnote 4).
type UpdateOpKind int

const (
	// OpInsert adds a new element under the update target.
	OpInsert UpdateOpKind = iota
	// OpDelete removes elements matched by a path under the target.
	OpDelete
	// OpReplace substitutes matched elements with new content.
	OpReplace
)

// String names the operation.
func (k UpdateOpKind) String() string {
	switch k {
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	case OpReplace:
		return "REPLACE"
	default:
		return fmt.Sprintf("UpdateOpKind(%d)", int(k))
	}
}

// UpdateOp is one operation inside UPDATE $var { ... }.
type UpdateOp struct {
	Kind UpdateOpKind
	// PathVar/Path locate the operand for DELETE and REPLACE:
	// $PathVar/Path[0]/Path[1]...; TextOnly marks a trailing /text().
	PathVar  string
	Path     []string
	TextOnly bool
	// Content is the new element for INSERT and REPLACE.
	Content *xmltree.Node
}

// UpdateQuery is a parsed view update (Fig. 4 / Fig. 10 syntax).
type UpdateQuery struct {
	Bindings  []Binding
	Preds     []Pred
	TargetVar string
	Ops       []UpdateOp
}

// String renders a summary of the update for error messages.
func (u *UpdateQuery) String() string {
	var b strings.Builder
	for i, bd := range u.Bindings {
		if i == 0 {
			b.WriteString("FOR ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "$%s IN %s", bd.Var, bd.Source)
	}
	if len(u.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range u.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	fmt.Fprintf(&b, " UPDATE $%s {", u.TargetVar)
	for i, op := range u.Ops {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(op.Kind.String())
		if op.Kind != OpInsert {
			fmt.Fprintf(&b, " $%s", op.PathVar)
			for _, p := range op.Path {
				b.WriteString("/" + p)
			}
			if op.TextOnly {
				b.WriteString("/text()")
			}
		}
		if op.Content != nil {
			b.WriteString(" <" + op.Content.Name + ">...")
		}
	}
	b.WriteString("}")
	return b.String()
}
