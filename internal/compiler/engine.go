package compiler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"muzzle/internal/circuit"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
)

// Default engine limits; see the complexity discussions in paper
// Sections III-A4, III-B1, III-C3 — lookahead and re-order scans are what
// keep the O(n^2) worst case tractable in practice.
const (
	// DefaultLookahead caps how many upcoming 2Q gates a policy sees.
	DefaultLookahead = 512
	// DefaultMaxReorderChain caps consecutive Algorithm-1 hoists without an
	// executed gate, preventing livelock between mutually-blocking gates.
	DefaultMaxReorderChain = 25
	// DefaultMaxRebalanceDepth caps the evictions spent resolving the
	// traffic blocks of a single routing operation.
	DefaultMaxRebalanceDepth = 64
)

// Compiler compiles circuits for a multi-trap machine using the configured
// policies. The zero value is not usable; Direction and Rebalancer are
// mandatory, Reorderer is optional (the baseline compiler has none).
type Compiler struct {
	Direction  Direction
	Reorderer  Reorderer
	Rebalancer Rebalancer
	// Lookahead caps remaining-gate scans (0 means DefaultLookahead).
	Lookahead int
	// MaxReorderChain caps consecutive hoists (0 means default).
	MaxReorderChain int
	// MaxRebalanceDepth caps recursive rebalancing (0 means default).
	MaxRebalanceDepth int
	// DisableIndex turns off the future-gate index and runs the engine on
	// the naive rescan read path (a fresh Remaining2Q slice per co-locate
	// attempt). The two paths are trace-equivalent by contract; this knob
	// exists so equivalence tests and benchmarks can pin the naive
	// reference. Production callers should leave it false.
	DisableIndex bool

	// verifyIndex makes the engine check the incremental index against a
	// from-scratch rebuild after every mutation; O(n) per mutation,
	// test-only (see index_test.go).
	verifyIndex bool
}

// Result is the outcome of one compilation.
type Result struct {
	// Circ is the decomposed native-gate circuit that was scheduled.
	Circ *circuit.Circuit
	// Config is the machine the program was compiled for.
	Config machine.Config
	// InitialPlacement is the starting trap contents (ion chains).
	InitialPlacement [][]int
	// Ops is the full execution trace (gates + shuttle primitives).
	Ops []machine.Op
	// Order is the final gate execution order (indices into Circ.Gates).
	Order []int
	// Shuttles is the number of MOVE operations — the paper's headline
	// metric (Table II).
	Shuttles int
	// Swaps, Splits, Merges count the other shuttle primitives.
	Swaps, Splits, Merges int
	// Gates2Q and Gates1Q count executed gates.
	Gates2Q, Gates1Q int
	// Reorders counts Algorithm-1 hoists performed.
	Reorders int
	// Rebalances counts traffic-block resolutions performed.
	Rebalances int
	// CompileTime is the wall-clock compilation duration (Table III).
	CompileTime time.Duration
	// DirectionPolicy, RebalancePolicy, ReorderPolicy record the policy
	// names for reporting.
	DirectionPolicy, RebalancePolicy, ReorderPolicy string
}

func (c *Compiler) lookahead() int {
	if c.Lookahead > 0 {
		return c.Lookahead
	}
	return DefaultLookahead
}

func (c *Compiler) maxReorderChain() int {
	if c.MaxReorderChain > 0 {
		return c.MaxReorderChain
	}
	return DefaultMaxReorderChain
}

func (c *Compiler) maxRebalanceDepth() int {
	if c.MaxRebalanceDepth > 0 {
		return c.MaxRebalanceDepth
	}
	return DefaultMaxRebalanceDepth
}

// Compile decomposes circ to the native gate set, computes a greedy initial
// placement, and schedules the program.
//
//muzzle:ctx-background legacy ctx-less API; cancelable callers use CompileContext
func (c *Compiler) Compile(circ *circuit.Circuit, cfg machine.Config) (*Result, error) {
	return c.CompileContext(context.Background(), circ, cfg)
}

// CompileContext is Compile with cooperative cancellation: the scheduling
// loop checks ctx once per gate and aborts with ctx.Err() when it fires.
func (c *Compiler) CompileContext(ctx context.Context, circ *circuit.Circuit, cfg machine.Config) (*Result, error) {
	native, err := circuit.Decompose(circ)
	if err != nil {
		return nil, err
	}
	placement, err := GreedyPlacement(native, cfg)
	if err != nil {
		return nil, err
	}
	return c.CompileMappedContext(ctx, native, cfg, placement)
}

// CompileMapped schedules an already-native circuit from an explicit initial
// placement. placement[t] lists the ions (== qubit ids) initially in trap t.
//
//muzzle:ctx-background legacy ctx-less API; cancelable callers use CompileMappedContext
func (c *Compiler) CompileMapped(native *circuit.Circuit, cfg machine.Config, placement [][]int) (*Result, error) {
	return c.CompileMappedContext(context.Background(), native, cfg, placement)
}

// tracePool recycles trace buffers across compiles. A compile records into
// a pooled buffer and returns an exact-length copy, so Result.Ops never
// aliases pooled memory and a warm buffer spares every later compile the
// trace's regrowth copies. It holds *[]machine.Op, so Put does not allocate.
var tracePool = sync.Pool{New: func() any { return new([]machine.Op) }}

// CompileMappedContext is CompileMapped with cooperative cancellation.
func (c *Compiler) CompileMappedContext(ctx context.Context, native *circuit.Circuit, cfg machine.Config, placement [][]int) (*Result, error) {
	start := time.Now()
	if c.Direction == nil || c.Rebalancer == nil {
		return nil, fmt.Errorf("compiler: Direction and Rebalancer policies are mandatory")
	}
	if err := native.Validate(); err != nil {
		return nil, err
	}
	for i, g := range native.Gates {
		if !circuit.IsNative(g.Name) {
			return nil, fmt.Errorf("compiler: gate %d (%q) is not native; call Compile or Decompose first", i, g.Name)
		}
	}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		return nil, err
	}
	if st.NumIons() < native.NumQubits {
		return nil, fmt.Errorf("compiler: placement has %d ions, circuit needs %d", st.NumIons(), native.NumQubits)
	}
	// The pooled buffer goes back on every return, grown if this compile
	// needed more room.
	buf := tracePool.Get().(*[]machine.Op)
	st.AdoptOps(*buf)
	defer func() {
		*buf = st.Ops()[:0]
		tracePool.Put(buf)
	}()
	// Every gate records at least one trace op and shuttles add a few more;
	// reserving up front keeps slice-growth copies of a cold buffer out of
	// the hot loop.
	st.ReserveOps(len(native.Gates) + len(native.Gates)/4)

	e := &engine{
		c:      c,
		st:     st,
		cancel: ctx,
		ctx:    &Context{State: st, Graph: dag.Build(native), Circ: native, Executed: make([]bool, len(native.Gates))},
	}
	res := &Result{
		Circ:             native,
		Config:           cfg,
		InitialPlacement: st.Snapshot(),
		DirectionPolicy:  c.Direction.Name(),
		RebalancePolicy:  c.Rebalancer.Name(),
	}
	if c.Reorderer != nil {
		res.ReorderPolicy = c.Reorderer.Name()
	}
	if err := e.run(res); err != nil {
		return nil, err
	}
	if err := st.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("compiler: post-compile invariant violation: %w", err)
	}
	res.Ops = append([]machine.Op(nil), st.Ops()...)
	res.Shuttles = st.Shuttles()
	res.Swaps = st.OpCount(machine.OpSwap)
	res.Splits = st.OpCount(machine.OpSplit)
	res.Merges = st.OpCount(machine.OpMerge)
	res.Gates2Q = st.OpCount(machine.OpGate2Q)
	res.Gates1Q = st.OpCount(machine.OpGate1Q)
	res.CompileTime = time.Since(start)
	return res, nil
}

// engine carries the mutable compilation loop state.
type engine struct {
	c      *Compiler
	st     *machine.State
	cancel context.Context
	ctx    *Context
	res    *Result
	order  []int
	// remBuf is the reusable backing array for materialized remaining
	// views handed to policies without an indexed fast path.
	remBuf []int
	// protBuf backs ctx.Protected so co-locating a gate allocates nothing.
	protBuf [2]int
	// dirWindowed / rebWindowed record whether the configured policies take
	// Window descriptors directly (resolved once per compile).
	dirWindowed bool
	rebWindowed bool
}

//muzzle:hotpath
func (e *engine) run(res *Result) error {
	e.res = res
	n := len(e.ctx.Circ.Gates)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	e.order = order
	if !e.c.DisableIndex {
		e.ctx.idx = newFutureIndex(e.ctx, order)
		e.ctx.protMark = make([]bool, e.st.NumIons())
		e.ctx.avoidMark = make([]bool, e.st.NumTraps())
		_, e.dirWindowed = e.c.Direction.(WindowedDirection)
		_, e.rebWindowed = e.c.Rebalancer.(WindowedRebalancer)
	}
	cursor := 0
	reorderChain := 0
	for cursor < n {
		if err := e.cancel.Err(); err != nil {
			return fmt.Errorf("compiler: canceled at gate %d/%d: %w", cursor, n, err)
		}
		active := order[cursor]
		g := e.ctx.Circ.Gates[active]
		switch g.Kind() {
		case circuit.KindBarrier:
			e.finish(active, &cursor, &reorderChain)
		case circuit.Kind1Q, circuit.KindMeasure:
			e.st.ApplyGate1Q(g.Name, g.Qubits[0], active)
			e.finish(active, &cursor, &reorderChain)
		case circuit.Kind2Q:
			qa, qb := g.Qubits[0], g.Qubits[1]
			hoisted, err := e.coLocate(active, qa, qb, order, cursor, reorderChain)
			if err != nil {
				return fmt.Errorf("compiler: gate %d (%s): %w", active, g, err)
			}
			if hoisted {
				reorderChain++
				res.Reorders++
				continue // the hoisted gate is the new active gate
			}
			if err := e.st.ApplyGate2Q(g.Name, qa, qb, active); err != nil {
				return err
			}
			e.finish(active, &cursor, &reorderChain)
		}
	}
	res.Order = order
	return nil
}

// maxCoLocateAttempts bounds the direction/route retry loop; a retry only
// happens in the rare case a rebalance evicted the active gate's partner.
const maxCoLocateAttempts = 8

// coLocate brings the active gate's ions into one trap. It returns
// hoisted=true if, instead of shuttling, a pending gate was re-ordered in
// front of the active gate (Algorithm 1) — in that case the caller must
// re-enter the loop without advancing the cursor.
//
// On the indexed path (the default) the lookahead view is an O(1) Window
// descriptor; windowed policies consume it directly and legacy policies get
// it materialized into a reusable buffer. With DisableIndex the engine runs
// the original naive rescan, allocating a fresh Remaining2Q slice per
// attempt — the reference behavior the indexed path is tested against.
//
//muzzle:hotpath
func (e *engine) coLocate(active, qa, qb int, order []int, cursor, reorderChain int) (bool, error) {
	e.setProtected(qa, qb)
	defer e.clearProtected()
	hasIdx := e.ctx.idx != nil
	for attempt := 0; !e.st.CoLocated(qa, qb); attempt++ {
		if attempt >= maxCoLocateAttempts {
			return false, fmt.Errorf("could not co-locate ions %d and %d after %d attempts", qa, qb, attempt)
		}
		var (
			remaining []int
			win       Window
		)
		if hasIdx {
			win = e.ctx.Window(e.c.lookahead(), -1)
			if !e.dirWindowed || !e.rebWindowed {
				e.remBuf = e.ctx.AppendWindow(e.remBuf, win)
				remaining = e.remBuf
			}
		} else {
			remaining = Remaining2Q(e.ctx, order, cursor, e.c.lookahead(), -1)
		}
		var moveIon, dest int
		if hasIdx && e.dirWindowed {
			moveIon, dest = e.c.Direction.(WindowedDirection).ChooseWindowed(e.ctx, active, qa, qb, win)
		} else {
			moveIon, dest = e.c.Direction.Choose(e.ctx, active, qa, qb, remaining)
		}
		if err := validateDecision(e.ctx, qa, qb, moveIon, dest); err != nil {
			return false, err
		}
		if attempt == 0 && e.st.IsFull(dest) && e.c.Reorderer != nil && reorderChain < e.c.maxReorderChain() {
			if pos := e.c.Reorderer.Candidate(e.ctx, order, cursor, dest); pos > cursor {
				hoist(order, cursor, pos)
				if hasIdx {
					e.ctx.idx.hoisted(e.ctx, order, cursor, pos)
					e.checkIndex(order)
				}
				return true, nil
			}
		}
		if e.st.IsFull(dest) {
			// The favorable destination stays full (no re-ordering
			// opportunity): moving the partner the other way costs one
			// shuttle, whereas evicting a bystander costs at least two
			// (eviction + the original move). Flip the direction when the
			// opposite trap has room; only when both traps are full does
			// the engine fall through to re-balancing.
			other := qa
			if moveIon == qa {
				other = qb
			}
			if otherDest := e.st.IonTrap(moveIon); !e.st.IsFull(otherDest) {
				moveIon, dest = other, otherDest
			}
		}
		budget := e.c.maxRebalanceDepth()
		if err := e.routeWithRebalance(moveIon, dest, remaining, win, &budget); err != nil {
			return false, err
		}
	}
	return false, nil
}

// finish marks a gate executed and advances the cursor, keeping the
// future-gate index in step.
//
//muzzle:hotpath
func (e *engine) finish(active int, cursor *int, reorderChain *int) {
	e.ctx.Executed[active] = true
	*cursor++
	*reorderChain = 0
	if idx := e.ctx.idx; idx != nil {
		idx.executed(e.ctx, active)
		idx.cursor = *cursor
		e.checkIndex(e.order)
	}
}

// setProtected marks the active gate's operands (backed by a fixed engine
// buffer plus the O(1) mark bitmap — no per-gate allocation).
//
//muzzle:hotpath
func (e *engine) setProtected(qa, qb int) {
	e.protBuf[0], e.protBuf[1] = qa, qb
	e.ctx.Protected = e.protBuf[:2]
	if e.ctx.protMark != nil {
		e.ctx.protMark[qa] = true
		e.ctx.protMark[qb] = true
	}
}

//muzzle:hotpath
func (e *engine) clearProtected() {
	if e.ctx.protMark != nil {
		for _, p := range e.ctx.Protected {
			e.ctx.protMark[p] = false
		}
	}
	e.ctx.Protected = nil
}

// setAvoid publishes the avoid list into the O(1) mark bitmap; clearAvoid
// retracts it.
//
//muzzle:hotpath
func (e *engine) setAvoid(avoid []int) {
	if e.ctx.avoidMark == nil {
		return
	}
	for _, t := range avoid {
		e.ctx.avoidMark[t] = true
	}
	e.ctx.avoidRef = avoid
}

//muzzle:hotpath
func (e *engine) clearAvoid() {
	if e.ctx.avoidMark == nil {
		return
	}
	for _, t := range e.ctx.avoidRef {
		e.ctx.avoidMark[t] = false
	}
	e.ctx.avoidRef = nil
}

// checkIndex is the verifyIndex test hook: it cross-checks the incremental
// index against a from-scratch rebuild and panics on divergence (a panic
// here is always an engine bug; see index_test.go).
func (e *engine) checkIndex(order []int) {
	if !e.c.verifyIndex {
		return
	}
	if err := e.ctx.idx.verify(e.ctx, order); err != nil {
		panic(err)
	}
}

// validateDecision guards against mis-behaving policies.
//
//muzzle:hotpath
func validateDecision(ctx *Context, qa, qb, moveIon, dest int) error {
	if moveIon != qa && moveIon != qb {
		return fmt.Errorf("compiler: direction policy chose ion %d, not an operand of (%d,%d)", moveIon, qa, qb)
	}
	other := qa
	if moveIon == qa {
		other = qb
	}
	if got := ctx.State.IonTrap(other); got != dest {
		return fmt.Errorf("compiler: direction policy chose destination T%d, but partner ion %d is in T%d", dest, other, got)
	}
	return nil
}

// hoist moves order[pos] to position cursor, shifting the slice right.
//
//muzzle:hotpath
func hoist(order []int, cursor, pos int) {
	v := order[pos]
	copy(order[cursor+1:pos+1], order[cursor:pos])
	order[cursor] = v
}

// routeWithRebalance shuttles ion toward dest one hop at a time, resolving
// traffic blocks (full traps on the path, including dest itself) through
// the Rebalancer. The eviction budget is shared across the whole routing
// operation, bounding cascades; evicted ions are steered away from the
// remainder of this route via the Rebalancer's avoid list so a cascade
// cannot re-block the path it is clearing.
//
//muzzle:hotpath
func (e *engine) routeWithRebalance(ion, dest int, remaining []int, win Window, budget *int) error {
	topo := e.st.Config().Topology
	for e.st.IonTrap(ion) != dest {
		cur := e.st.IonTrap(ion)
		next := topo.NextHop(cur, dest)
		if e.st.IsFull(next) {
			// The evicted ion should not land on the rest of our path (the
			// traps strictly after next, destination included). The path is
			// a shared precomputed slice — read-only by contract.
			avoid := topo.Path(next, dest)[1:]
			e.setAvoid(avoid)
			err := e.ensureSpace(next, remaining, win, avoid, budget)
			e.clearAvoid()
			if err != nil {
				return err
			}
		}
		if err := e.st.Hop(ion, next); err != nil {
			return err
		}
	}
	return nil
}

// ensureSpace frees one slot in the full trap `blocked`. The Rebalancer
// picks the victim ion and the destination trap; the engine realizes the
// eviction as a *hole shift*: it finds the first trap with room along the
// path toward the destination and shifts one ion forward per intervening
// trap, propagating the hole back to `blocked`. Every move lands in a trap
// with room by construction, so the resolution never recurses and always
// terminates — including on saturated corridors where naive re-routing
// would cycle between two full traps. When the corridor toward the
// destination is open, the victim completes the full journey, preserving
// the baseline policy's (wasteful) long hauls that Fig. 7 illustrates.
//
//muzzle:hotpath
func (e *engine) ensureSpace(blocked int, remaining []int, win Window, avoid []int, budget *int) error {
	if *budget <= 0 {
		return fmt.Errorf("rebalance budget exhausted at trap %d", blocked)
	}
	*budget--
	var (
		victim, victimDest int
		err                error
	)
	if e.rebWindowed && e.ctx.idx != nil {
		victim, victimDest, err = e.c.Rebalancer.(WindowedRebalancer).ChooseWindowed(e.ctx, blocked, win, avoid)
	} else {
		victim, victimDest, err = e.c.Rebalancer.Choose(e.ctx, blocked, remaining, avoid)
	}
	if err != nil {
		return fmt.Errorf("traffic block at trap %d unresolvable: %w", blocked, err)
	}
	if e.st.IonTrap(victim) != blocked {
		return fmt.Errorf("rebalancer chose ion %d outside blocked trap %d", victim, blocked)
	}
	if victimDest == blocked {
		return fmt.Errorf("rebalancer chose blocked trap %d as destination", blocked)
	}
	e.res.Rebalances++
	topo := e.st.Config().Topology
	path := topo.Path(blocked, victimDest)
	hole := -1
	for i := 1; i < len(path); i++ {
		if !e.st.IsFull(path[i]) {
			hole = i
			break
		}
	}
	if hole < 0 {
		return fmt.Errorf("rebalancer chose full trap %d as destination", victimDest)
	}
	// Shift one ion forward from each trap between the hole and blocked,
	// moving the hole adjacent to blocked.
	for i := hole; i >= 2; i-- {
		shifted := e.shiftIon(path[i-1], path[i])
		if err := e.st.Hop(shifted, path[i]); err != nil {
			return err
		}
	}
	if err := e.st.Hop(victim, path[1]); err != nil {
		return err
	}
	// Open corridor: let the victim finish the journey the policy asked
	// for, stopping early if a full trap intervenes (the block is already
	// resolved at this point; the remainder is policy faithfulness).
	for e.st.IonTrap(victim) != victimDest {
		next := topo.NextHop(e.st.IonTrap(victim), victimDest)
		if e.st.IsFull(next) {
			break
		}
		if err := e.st.Hop(victim, next); err != nil {
			return err
		}
	}
	return nil
}

// shiftIon picks the ion to shift from trap `from` into adjacent trap `to`
// during a hole shift: the chain-edge ion facing the direction of travel
// (zero intra-chain swaps), skipping engine-protected ions when possible.
//
//muzzle:hotpath
func (e *engine) shiftIon(from, to int) int {
	chain := e.st.Chain(from)
	n := len(chain)
	pick := chain[0]
	for i := 0; i < n; i++ {
		idx := i
		if to > from {
			idx = n - 1 - i
		}
		if i == 0 {
			pick = chain[idx]
		}
		if !e.ctx.IsProtected(chain[idx]) {
			return chain[idx]
		}
	}
	return pick
}
