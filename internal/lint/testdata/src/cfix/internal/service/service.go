// Package service sits on the fixture's request path (the covered-package
// check matches the import-path suffix internal/service), so every rule of
// ctxflow binds here.
package service

import (
	"context"
	"net/http"

	"cfix/helper"
)

// Handler exercises rule 1: direct constructions.
func Handler(ctx context.Context) {
	_ = context.Background()     // want `request-path function Handler constructs context\.Background\(\)`
	_ = context.TODO()           // want `request-path function Handler constructs context\.TODO\(\)`
	root := context.Background() //muzzle:ctx-background fixture: deliberate detached root
	_ = root
}

// BadWaiver carries a waiver with no justification. Its expectation is a
// block comment before the directive: a trailing comment would be read as
// the waiver's reason.
func BadWaiver() {
	_ = context.Background() /* want `muzzle:ctx-background waiver is missing a reason` */ //muzzle:ctx-background
}

// UsesHelper exercises rule 2: the callee severs cancellation one hop
// down, in a package that is itself uncovered.
func UsesHelper(ctx context.Context) {
	_ = helper.Run() // want `request-path function UsesHelper calls helper\.Run, which constructs context\.Background\(\)`
}

// DeepHelper exercises rule 2 across two hops; the message carries the
// chain.
func DeepHelper(ctx context.Context) {
	_ = helper.Outer() // want `request-path function DeepHelper calls helper\.Outer → helper\.Run, which constructs context\.Background\(\)`
}

// WaivedHelper calls a waived context root: quiet.
func WaivedHelper(ctx context.Context) {
	_ = helper.Waived()
}

// ThreadedHelper does it right end to end: quiet.
func ThreadedHelper(ctx context.Context) {
	_ = helper.Threaded(ctx)
}

// Request exercises rule 3: a context-less HTTP request.
func Request() {
	req, _ := http.NewRequest("GET", "http://example.invalid/", nil) // want `request-path function Request builds a request without a context; use http\.NewRequestWithContext`
	_ = req
}

// GoodRequest threads the context: quiet.
func GoodRequest(ctx context.Context) {
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://example.invalid/", nil)
	_ = req
}
