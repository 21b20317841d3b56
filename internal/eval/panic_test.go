package eval

import (
	"context"
	"strings"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/registry"
)

// panicDirection is a deliberately broken routing policy.
type panicDirection struct{}

func (panicDirection) Name() string { return "panic-direction" }
func (panicDirection) Choose(*compiler.Context, int, int, int, []int) (int, int) {
	panic("policy bug: unroutable gate")
}

// A panicking compiler policy must fail its circuit with a structured
// error, not crash the harness: the daemon runs arbitrary registered
// compilers across many jobs and sweep cells.
func TestCompilerPanicIsContained(t *testing.T) {
	const name = "eval-panic-test"
	// The registry is process-wide, so a repeated run (-count=N) finds the
	// compiler already registered.
	if !registry.Has(name) {
		err := registry.Register(name, func() *compiler.Compiler {
			c := core.New()
			c.Direction = panicDirection{}
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	opt := smallOptions()
	opt.Compilers = []string{name}
	c := bench.Random(12, 60, 3)
	if _, err := RunCircuit(context.Background(), c, opt); err == nil {
		t.Fatal("RunCircuit returned nil error for a panicking policy")
	} else if !strings.Contains(err.Error(), "compiler panicked") {
		t.Fatalf("error %q does not report the contained panic", err)
	}
	// The harness survives: the same run with a sane compiler succeeds.
	opt.Compilers = nil
	if _, err := RunCircuit(context.Background(), c, opt); err != nil {
		t.Fatalf("follow-up run after contained panic: %v", err)
	}
}
