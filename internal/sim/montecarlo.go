package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"muzzle/internal/machine"
)

// SuccessEstimate is the outcome of a Monte Carlo success-probability
// estimation.
type SuccessEstimate struct {
	// Mean is the fraction of trials in which no gate failed — the Monte
	// Carlo estimate of program fidelity under the independent-error
	// model.
	Mean float64
	// StdErr is the binomial standard error of Mean. It collapses to 0
	// when every trial agrees (Mean exactly 0 or 1) even though the true
	// probability is almost never exactly at the boundary — read Low/High
	// for honest uncertainty there.
	StdErr float64
	// Low and High are the bounds of the 95% Wilson score interval for the
	// success probability. Unlike the naive ±StdErr band, the interval has
	// positive width at Mean 0 and 1 (observing n straight failures bounds
	// the probability near, not at, zero), so low-fidelity circuits never
	// claim impossible certainty.
	Low, High float64
	// Trials is the sample count.
	Trials int
	// Analytic is the closed-form program fidelity (product of gate
	// fidelities) for comparison; Mean converges to it as Trials grows.
	Analytic float64
}

// wilsonZ is the normal quantile for the 95% confidence Wilson interval.
const wilsonZ = 1.959963984540054

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion after observing `successes` of `trials`, at normal
// quantile z (1.96 for 95%). Unlike the Wald interval mean ± z·StdErr, it
// is well-behaved at the boundaries: zero successes yield [0, z²/(n+z²)]
// rather than the degenerate [0, 0], and n of n yield [n/(n+z²), 1].
func WilsonInterval(successes, trials int, z float64) (low, high float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	low, high = math.Max(0, center-half), math.Min(1, center+half)
	// At the boundaries the closed forms are exact (0 and 1 respectively);
	// snap them so floating-point roundoff cannot exclude the estimate.
	if successes == 0 {
		low = 0
	}
	if successes == trials {
		high = 1
	}
	return low, high
}

// mcChunk is the number of trials per deterministic RNG chunk.
//
// Seed-splitting scheme: the trial space is partitioned into fixed chunks of
// mcChunk trials; chunk c draws from its own rand source seeded with
// splitMix64(seed, c). Workers claim whole chunks, so the set of random
// streams — and therefore the estimate — depends only on (seed, trials),
// never on the worker count or scheduling order: SampleSuccessContext(…, s)
// is bit-for-bit reproducible on any machine and any GOMAXPROCS.
const mcChunk = 8192

// splitMix64 derives a decorrelated per-chunk seed from the user seed; it is
// the standard SplitMix64 output function over seed advanced by chunk+1
// golden-gamma steps.
func splitMix64(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// SampleSuccessContext estimates the program success probability by Monte
// Carlo: it replays the trace once through the analytic simulator to obtain
// every gate's fidelity, then samples `trials` runs in which each gate fails
// independently with probability 1 - F(gate). A run succeeds when no gate
// fails.
//
// Trials are partitioned into deterministic chunks (see mcChunk) and drawn
// by a pool of workers in parallel; results are reproducible for a given
// (seed, trials) pair regardless of CPU count.
//
// Under this independence model the estimate converges to the analytic
// product, so the sampler is primarily a consistency check and a base for
// extensions with correlated errors; it also gives confidence intervals,
// which the analytic number alone does not.
//
// The analytic replay aborts at its usual stride, and each worker re-checks
// ctx between trial chunks, so a canceled request stops burning CPU within
// one chunk (~mcChunk trials) per worker. A canceled run returns ctx.Err() —
// never a partial estimate, which would be statistically meaningless.
func SampleSuccessContext(ctx context.Context, cfg machine.Config, initial [][]int, ops []machine.Op, params Params, trials int, seed int64) (*SuccessEstimate, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	rep, fids, err := replay(ctx, cfg, initial, ops, params, true)
	if err != nil {
		return nil, err
	}

	chunks := (trials + mcChunk - 1) / mcChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	var (
		next      atomic.Int64
		successes atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks || ctx.Err() != nil {
					return
				}
				n := mcChunk
				if rem := trials - c*mcChunk; rem < n {
					n = rem
				}
				rng := rand.New(rand.NewSource(splitMix64(seed, c)))
				ok := 0
				for t := 0; t < n; t++ {
					good := true
					for _, f := range fids {
						if rng.Float64() >= f {
							good = false
							break
						}
					}
					if good {
						ok++
					}
				}
				successes.Add(int64(ok))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return newSuccessEstimate(int(successes.Load()), trials, rep.Fidelity), nil
}

// newSuccessEstimate assembles the estimate from raw counts; split out so
// the boundary cases (0 or trials successes) are testable without steering
// the sampler onto them.
func newSuccessEstimate(successes, trials int, analytic float64) *SuccessEstimate {
	mean := float64(successes) / float64(trials)
	low, high := WilsonInterval(successes, trials, wilsonZ)
	return &SuccessEstimate{
		Mean:     mean,
		StdErr:   math.Sqrt(mean * (1 - mean) / float64(trials)),
		Low:      low,
		High:     high,
		Trials:   trials,
		Analytic: analytic,
	}
}
