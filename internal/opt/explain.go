package opt

import (
	"fmt"
	"strings"
	"time"

	"recycledb/internal/plan"
)

// EXPLAIN support: annotate a (typically already optimized) plan with the
// cost model's per-node estimates and the recycler's knowledge of each
// subtree, and render the tree for the shell.

// Annotate computes per-node annotations for a resolved plan.
func Annotate(p *plan.Node, ctx *Context) map[*plan.Node]NodeInfo {
	co := newCoster(ctx)
	m := make(map[*plan.Node]NodeInfo, p.Count())
	p.WalkPost(func(n *plan.Node) { m[n] = co.info(n).NodeInfo })
	return m
}

// Render draws the plan tree one node per line with its annotation:
//
//	select[(l_quantity<24)]  (rows≈2994, cost≈35µs) [cached]
func Render(p *plan.Node, info map[*plan.Node]NodeInfo) string {
	var b strings.Builder
	var rec func(n *plan.Node, depth int)
	rec = func(n *plan.Node, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(n.Describe())
		if ni, ok := info[n]; ok {
			fmt.Fprintf(&b, "  (rows≈%d, cost≈%s)", ni.Rows, fmtDur(ni.Cost))
			switch {
			case ni.Cached:
				b.WriteString(" [cached]")
			case ni.Inflight:
				b.WriteString(" [inflight]")
			case ni.Existed:
				b.WriteString(" [seen]")
			}
			if ni.Known {
				fmt.Fprintf(&b, " [measured %s]", fmtDur(ni.Measured))
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// fmtDur rounds a duration for display to three significant-ish digits.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Nanosecond).String()
	}
	return d.String()
}
