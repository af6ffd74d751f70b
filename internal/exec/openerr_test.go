package exec

import (
	"errors"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// scratchChild acquires pooled scratch in Open and releases it in Close,
// like every real operator.
type scratchChild struct {
	buf    *vector.Batch
	closed bool
}

func (c *scratchChild) Schema() catalog.Schema {
	return catalog.Schema{{Name: "x", Typ: vector.Int64}}
}

func (c *scratchChild) Open(ctx *Ctx) error {
	c.buf = ctx.pool().GetBatch([]vector.Type{vector.Int64}, 16)
	return nil
}

func (c *scratchChild) Next(ctx *Ctx) (*vector.Batch, error) { return nil, nil }

func (c *scratchChild) Close(ctx *Ctx) error {
	if c.buf != nil {
		ctx.pool().PutBatch(c.buf)
		c.buf = nil
	}
	c.closed = true
	return nil
}

func (c *scratchChild) Progress() float64 { return 1 }
func (c *scratchChild) RowsOut() int64    { return 0 }

// failOpenOp opens its child successfully, then fails its own Open — the
// shape that used to leak the child's scratch out of Run and Drain.
type failOpenOp struct {
	child  *scratchChild
	closed bool
}

func (f *failOpenOp) Schema() catalog.Schema { return f.child.Schema() }

func (f *failOpenOp) Open(ctx *Ctx) error {
	if err := f.child.Open(ctx); err != nil {
		return err
	}
	return errors.New("boom")
}

func (f *failOpenOp) Next(ctx *Ctx) (*vector.Batch, error) { return nil, nil }

func (f *failOpenOp) Close(ctx *Ctx) error {
	f.closed = true
	return f.child.Close(ctx)
}

func (f *failOpenOp) Progress() float64 { return 0 }
func (f *failOpenOp) RowsOut() int64    { return 0 }

// TestRunClosesOnOpenError: when Open fails partway through a tree, Run
// must still Close the tree so scratch already drawn from the pool is
// returned (the zero-steady-state-allocation contract).
func TestRunClosesOnOpenError(t *testing.T) {
	op := &failOpenOp{child: &scratchChild{}}
	ctx := &Ctx{Cat: catalog.New(), VectorSize: 16, Pool: new(vector.Pool)}
	if _, err := Run(ctx, op); err == nil {
		t.Fatal("Run: expected error from failing Open")
	}
	if !op.closed || !op.child.closed {
		t.Fatalf("Run left the tree open after an Open error: op.closed=%v child.closed=%v",
			op.closed, op.child.closed)
	}
	if op.child.buf != nil {
		t.Fatal("child scratch not returned to the pool")
	}
}

func TestDrainClosesOnOpenError(t *testing.T) {
	op := &failOpenOp{child: &scratchChild{}}
	ctx := &Ctx{Cat: catalog.New(), VectorSize: 16, Pool: new(vector.Pool)}
	if _, err := Drain(ctx, op); err == nil {
		t.Fatal("Drain: expected error from failing Open")
	}
	if !op.closed || !op.child.closed {
		t.Fatalf("Drain left the tree open after an Open error: op.closed=%v child.closed=%v",
			op.closed, op.child.closed)
	}
}
