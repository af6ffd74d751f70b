package exec

import (
	"time"

	"recycledb/internal/vector"
)

// LimitOp passes through the first N rows and then stops pulling.
type LimitOp struct {
	base
	Child Operator
	N     int
	seen  int
	done  bool
	out   *vector.Batch // pooled; used only for the final partial batch
}

// NewLimit builds a limit over child.
func NewLimit(child Operator, n int) *LimitOp {
	return &LimitOp{base: base{schema: child.Schema()}, Child: child, N: n}
}

// Open implements Operator.
func (l *LimitOp) Open(ctx *Ctx) error {
	defer l.addCost(time.Now())
	l.seen = 0
	l.done = false
	if l.out == nil {
		l.out = ctx.pool().GetBatch(l.Schema().Types(), ctx.vecSize())
	}
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *LimitOp) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	defer l.addCost(time.Now())
	if l.done || l.seen >= l.N {
		return nil, nil
	}
	in, err := l.Child.Next(ctx)
	if err != nil || in == nil {
		l.done = true
		return nil, err
	}
	if l.seen+in.Len() <= l.N {
		l.seen += in.Len()
		l.rows += int64(in.Len())
		return in, nil
	}
	l.out.Reset()
	l.out.AppendBatchRange(in, 0, l.N-l.seen)
	l.seen = l.N
	l.rows += int64(l.out.Len())
	return l.out, nil
}

// Close implements Operator.
func (l *LimitOp) Close(ctx *Ctx) error {
	if l.out != nil {
		ctx.pool().PutBatch(l.out)
		l.out = nil
	}
	return l.Child.Close(ctx)
}

// Progress implements Operator.
func (l *LimitOp) Progress() float64 {
	if l.N == 0 {
		return 1
	}
	p := float64(l.seen) / float64(l.N)
	if cp := l.Child.Progress(); cp > p {
		return cp
	}
	return p
}

// UnionOp concatenates two same-schema inputs (bag union).
type UnionOp struct {
	base
	Left, Right Operator
	onRight     bool
}

// NewUnion builds a bag union.
func NewUnion(left, right Operator) *UnionOp {
	return &UnionOp{base: base{schema: left.Schema()}, Left: left, Right: right}
}

// Open implements Operator.
func (u *UnionOp) Open(ctx *Ctx) error {
	defer u.addCost(time.Now())
	u.onRight = false
	if err := u.Left.Open(ctx); err != nil {
		return err
	}
	return u.Right.Open(ctx)
}

// Next implements Operator.
func (u *UnionOp) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	defer u.addCost(time.Now())
	if !u.onRight {
		b, err := u.Left.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b != nil {
			u.rows += int64(b.Len())
			return b, nil
		}
		u.onRight = true
	}
	b, err := u.Right.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	u.rows += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (u *UnionOp) Close(ctx *Ctx) error {
	err1 := u.Left.Close(ctx)
	err2 := u.Right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Progress implements Operator.
func (u *UnionOp) Progress() float64 {
	return (u.Left.Progress() + u.Right.Progress()) / 2
}
