package ctx

import (
	"context"

	"recycledb/internal/exec"
)

type blindOp struct{}

// Next ignores cancellation: a finding.
func (o *blindOp) Next(ctx *exec.Ctx) error { // want `operator \*blindOp.Next does not observe ctx cancellation`
	return nil
}

type politeOp struct{}

// Next consults Interrupted at the batch boundary: sanctioned.
func (o *politeOp) Next(ctx *exec.Ctx) error {
	if err := ctx.Interrupted(); err != nil {
		return err
	}
	return nil
}

type statsOp struct{}

//recycledb:ctx-ok — stats-only stand-in, never driven as an operator
func (o *statsOp) Next(ctx *exec.Ctx) error {
	return nil
}

// blindPipe mirrors a fused push driver that never checks cancellation:
// a finding — a fused loop replaces a whole chain of Next calls, so a
// missed check loses cancellation for the entire fragment.
type blindPipe struct{}

func (p *blindPipe) step(ctx *exec.Ctx) (bool, error) { // want `operator \*blindPipe.step does not observe ctx cancellation`
	return true, nil
}

// politePipe checks Interrupted at the batch boundary: sanctioned.
type politePipe struct{}

func (p *politePipe) step(ctx *exec.Ctx) (bool, error) {
	return true, ctx.Interrupted()
}

// drain is not a driver name: it loops over step, which carries the check.
func (p *blindPipe) drain(ctx *exec.Ctx) error {
	return nil
}

// mint creates a root context in library code: findings.
func mint() context.Context {
	_ = context.TODO()          // want `context.TODO\(\) in library code`
	return context.Background() // want `context.Background\(\) in library code`
}

// fallback is a documented, justified fallback.
func fallback(c context.Context) context.Context {
	if c == nil {
		c = context.Background() //recycledb:ctx-ok — documented nil-ctx fallback
	}
	return c
}
