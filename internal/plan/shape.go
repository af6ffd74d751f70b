package plan

import (
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// AppendShape appends n's shape text to b: each node's identity text with
// the output names it assigns (AppendCanon with names), its children's in
// parentheses after it. It is the optimized-shape key (opt.ShapeKey).
func (n *Node) AppendShape(b []byte) []byte {
	b = n.AppendCanon(b, expr.Ident, true)
	if len(n.Children) == 0 {
		return b
	}
	b = append(b, '(')
	for i, c := range n.Children {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.AppendShape(b)
	}
	return append(b, ')')
}

// ShapeTemplate is the shape text of a plan with parameter placeholders, cut
// where each placeholder renders. Key splices literals in at the cuts and
// yields, byte for byte, the shape text of the plan BindParams makes from
// the same literals, without binding or walking a plan.
type ShapeTemplate struct {
	text  string
	slots []shapeSlot // in text order
}

// shapeSlot is one cut: the offset in the text where parameter idx's
// literal goes.
type shapeSlot struct{ at, idx int }

// NewShapeTemplate renders n's shape text, cut at its parameter
// placeholders. n is not mutated. The cuts are recorded while the text is
// rendered, by placeholders that print nothing and note their offset; the
// finished text is never searched for them, since a string literal may
// spell a placeholder too.
func NewShapeTemplate(n *Node) ShapeTemplate {
	var t ShapeTemplate
	c := n.Clone()
	_ = c.substParams(func(p *expr.Param) (expr.Expr, error) {
		return slotParam{p, &t.slots}, nil
	})
	t.text = string(c.AppendShape(nil))
	return t
}

// Key returns the shape text of the template's plan bound to args. Every
// placeholder's index must be within args.
func (t ShapeTemplate) Key(args []vector.Datum) string {
	if len(t.slots) == 0 {
		return t.text
	}
	// Most keys fit the stack buffer, leaving the string the one allocation.
	var buf [1024]byte
	b, at := buf[:0], 0
	for _, s := range t.slots {
		b = args[s.idx].AppendCanon(append(b, t.text[at:s.at]...))
		at = s.at
	}
	return string(append(b, t.text[at:]...))
}

// slotParam stands in for a placeholder while NewShapeTemplate renders: it
// records a cut where the placeholder's literal would print.
type slotParam struct {
	*expr.Param
	slots *[]shapeSlot
}

// AppendCanon implements expr.Expr.
func (s slotParam) AppendCanon(b []byte, _ func(string) string) []byte {
	*s.slots = append(*s.slots, shapeSlot{at: len(b), idx: s.Idx})
	return b
}
