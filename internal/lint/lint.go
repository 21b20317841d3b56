// Package lint registers the muzzle analyzer suite. Each analyzer encodes
// one load-bearing invariant the repo otherwise enforces only by review:
//
//	allocflow   //muzzle:hotpath functions neither contain allocating
//	            constructs nor transitively reach an allocator
//	cachekey    every exported field of ckey-hashed structs enters the hash
//	ctxflow     request-path code never severs context cancellation
//	faultscope  fault-injection scopes come from the internal/faults registry
//	guardedby   "guarded by <mu>" fields are only touched under the mutex
//	httperr     handlers respond with structured JSON errors, never http.Error
//	lockorder   the global lock-order graph stays acyclic (no AB/BA deadlocks)
//
// allocflow, ctxflow, and lockorder are interprocedural: they consume the
// whole-program call graph (internal/lint/callgraph) the driver attaches
// to each Pass, and degrade to their syntactic subset when it is absent.
// guardedby and lockorder replay locks with one walker
// (internal/lint/lockreplay).
//
// Run the whole suite with `go run ./cmd/muzzlelint ./...`.
package lint

import (
	"muzzle/internal/lint/allocflow"
	"muzzle/internal/lint/analysis"
	"muzzle/internal/lint/cachekey"
	"muzzle/internal/lint/ctxflow"
	"muzzle/internal/lint/faultscope"
	"muzzle/internal/lint/guardedby"
	"muzzle/internal/lint/httperr"
	"muzzle/internal/lint/lockorder"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		allocflow.Analyzer,
		cachekey.Analyzer,
		ctxflow.Analyzer,
		faultscope.Analyzer,
		guardedby.Analyzer,
		httperr.Analyzer,
		lockorder.Analyzer,
	}
}
