// Package helper is deliberately OUTSIDE the request-path package set:
// its own context.Background() draws no finding, but the summaries carry
// the verdict into the covered package (cfix/internal/service) that calls
// it.
package helper

import "context"

// Run constructs a fresh context; not a finding here, but callers on a
// request path inherit the verdict.
func Run() context.Context {
	return context.Background()
}

// Outer reaches Run's construction one hop down.
func Outer() context.Context {
	return Run()
}

// Waived is a deliberate context root; the same-line waiver keeps the
// construction out of its summary, so request-path callers stay quiet.
func Waived() context.Context {
	return context.Background() //muzzle:ctx-background fixture: detached maintenance work, not request-scoped
}

// Threaded does it right; clean summary.
func Threaded(ctx context.Context) context.Context {
	return ctx
}
