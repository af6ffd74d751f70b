package plan

import "math"

// The cost model's weight table. Every cost in the engine — the optimizer's
// estimate of a plan, the price of what a run did, the recycler's cost(R) in
// Eq. 1–2 — is this table applied to a node and row counts: estimated rows
// when the optimizer calls it, the rows execution counted out of each node
// and its children when the recycler prices a run (internal/rewrite). One
// currency therefore prices both sides of every decision, and a cost is a
// pure function of the plan and its data, never of the clock or of the
// worker count that ran it.
//
// The weights are per row, relative to one another: hash-join builds
// dominate probes, scans scale with width, filters are cheap.

// Work is an amount of work in the cost model's units.
type Work int64

// OpWork is the work an operator of kind op does itself, children excluded,
// reading in rows from each child (in order) and producing out rows. width
// is the column count for a Scan and the item count for a Project; the
// other operators ignore it.
func OpWork(op Op, width int, out int64, in ...int64) Work {
	w := func(v float64) Work { return Work(v) }
	switch op {
	case Scan:
		return w(float64(out) * float64(1+width))
	case TableFn:
		return w(float64(out) * 2)
	case Cached:
		return ReplayWork(out, 0)
	case Select:
		return w(float64(in[0]) * 2)
	case Project:
		return w(float64(in[0]) * float64(1+width))
	case Aggregate:
		return w(float64(in[0])*8 + float64(out)*4)
	case Join:
		return JoinWork(in[0], in[1], out)
	case TopN:
		return w(float64(in[0]) * 4)
	case Sort:
		n := float64(in[0])
		return w(n * math.Log2(n+2) * 2)
	default: // Limit, Union
		var n float64
		for _, r := range in {
			n += float64(r)
		}
		return w(n)
	}
}

// SelfWork is OpWork for plan node n.
func (n *Node) SelfWork(out int64, in ...int64) Work {
	width := len(n.Projs)
	if n.Op == Scan {
		if width = len(n.Cols); width == 0 {
			width = len(n.schema)
		}
	}
	return OpWork(n.Op, width, out, in...)
}

// JoinWork is a hash join's own work: build the r right rows, probe with the
// l left rows, emit out. The terms are independent, so an executor may
// charge the build and the probe separately.
func JoinWork(l, r, out int64) Work {
	return Work(float64(r)*10 + float64(l)*4 + float64(out)*2)
}

// ReplayWork is the work of streaming a cached result of rows rows and
// bytes bytes out of the recycler cache.
func ReplayWork(rows, bytes int64) Work {
	return Work(rows) + Work(bytes/4)
}
