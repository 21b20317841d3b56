package muzzle

import (
	"muzzle/internal/verify"
)

// Violation is one broken schedule invariant reported by the independent
// verifier: the op index it was detected at (-1 for stream-global checks),
// a stable kind, and a human-readable detail.
type Violation = verify.Violation

// ViolationKind categorizes a Violation.
type ViolationKind = verify.Kind

// Violation kinds reported by Verify.
const (
	// ViolationPlacement marks an invalid initial placement.
	ViolationPlacement = verify.KindPlacement
	// ViolationEdge marks a shuttle move over a non-existent topology edge.
	ViolationEdge = verify.KindEdge
	// ViolationCapacity marks a trap filled beyond its total capacity.
	ViolationCapacity = verify.KindCapacity
	// ViolationPresence marks an op whose ion is not where the op claims.
	ViolationPresence = verify.KindPresence
	// ViolationCoLocation marks a 2Q gate on ions in different traps.
	ViolationCoLocation = verify.KindCoLocation
	// ViolationProtocol marks a broken SPLIT/MOVE/MERGE/SWAP protocol.
	ViolationProtocol = verify.KindProtocol
	// ViolationOrder marks a gate-order or gate-identity violation
	// (DAG precedence, execute-once coverage, measurement wiring).
	ViolationOrder = verify.KindOrder
	// ViolationConservation marks an ion lost, duplicated, or in transit.
	ViolationConservation = verify.KindConservation
	// ViolationMetadata marks result counters or Order disagreeing with
	// the trace, or a summary-only result that cannot be replayed.
	ViolationMetadata = verify.KindMetadata
)

// VerifyError is the typed error carrying a rejected schedule's
// violations. Evaluation runs with WithVerify (and the muzzled job path
// with "verify": true) fail with one of these in the cause chain; the
// public *Error wrapper then carries code ErrVerify.
type VerifyError = verify.Error

// Verify replays a compilation result's operation stream against the
// machine model from scratch — independently of the compiler engine that
// produced it — and reports every broken invariant: shuttle moves must
// traverse real topology edges into traps with a free slot, trap capacity
// must never be exceeded, every gate must execute with its ion(s) present
// (2Q operands co-located), the executed sequence must be a valid
// linearization of the circuit's dependency DAG with measurement wiring
// preserved, and ions must be conserved. An empty slice means the schedule
// is provably legal.
//
// Results reloaded from a cache's disk tier are summaries without an
// operation trace; they yield a single ViolationMetadata entry saying so.
func Verify(res *CompileResult) []Violation { return verify.Result(res) }

// WithVerify makes every evaluation run (Evaluate, EvaluateStream,
// EvaluateCircuit, EvaluateNISQ, EvaluateRandom) replay each compiled
// schedule through the independent verifier; violations fail the circuit
// with an ErrVerify error carrying a *VerifyError, and verified results
// record EvalResult.Verified. A cache hit or shared flight result that no
// verifying run produced is compiled and verified again. Verification costs
// about as much CPU as the compile it checks. The MUZZLE_VERIFY=1
// environment variable forces the same check on any pipeline without code
// changes.
func WithVerify() PipelineOption {
	return func(p *Pipeline) error {
		p.opt.Verify = true
		return nil
	}
}
