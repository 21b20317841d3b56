package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

func cfg2() machine.Config {
	return machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
}

func TestTimeParamsValidate(t *testing.T) {
	if err := DefaultTimeParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultTimeParams()
	p.Move = 0
	if err := p.Validate(); err == nil {
		t.Error("zero Move accepted")
	}
	p = DefaultTimeParams()
	p.Gate2QPerIon = -1
	if err := p.Validate(); err == nil {
		t.Error("negative scaling accepted")
	}
}

func TestGate2QScaling(t *testing.T) {
	p := DefaultTimeParams()
	if p.Gate2Q(2) != p.Gate2QBase {
		t.Errorf("Gate2Q(2) = %g", p.Gate2Q(2))
	}
	if p.Gate2Q(1) != p.Gate2QBase {
		t.Errorf("Gate2Q(1) should floor at base, got %g", p.Gate2Q(1))
	}
	want := p.Gate2QBase + 8*p.Gate2QPerIon
	if got := p.Gate2Q(10); got != want {
		t.Errorf("Gate2Q(10) = %g, want %g", got, want)
	}
}

// buildTrace compiles a tiny op sequence by hand via the machine package.
func buildTrace(t *testing.T) (machine.Config, [][]int, []machine.Op) {
	t.Helper()
	cfg := cfg2()
	initial := [][]int{{0, 1, 2}, {3, 4, 5}}
	st, err := machine.NewState(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Hop(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	st.ApplyGate1Q("r", 4, 2)
	st.ApplyGate1Q("measure", 5, 3)
	return cfg, initial, st.Ops()
}

func TestSimulateCounts(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	rep, err := SimulateContext(t.Context(), cfg, initial, ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shuttles != 1 || rep.Splits != 1 || rep.Merges != 1 {
		t.Errorf("shuttle primitive counts: %+v", rep)
	}
	if rep.Gates2Q != 2 || rep.Gates1Q != 1 || rep.Measures != 1 {
		t.Errorf("gate counts: %+v", rep)
	}
	if rep.Duration <= 0 {
		t.Error("non-positive duration")
	}
	if rep.Fidelity <= 0 || rep.Fidelity >= 1 {
		t.Errorf("fidelity = %g, want (0,1)", rep.Fidelity)
	}
	if math.Abs(math.Exp(rep.LogFidelity)-rep.Fidelity) > 1e-12 {
		t.Error("LogFidelity inconsistent with Fidelity")
	}
	if rep.MinGateFidelity > rep.MeanGateFidelity {
		t.Error("min gate fidelity above mean")
	}
}

func TestSimulateParallelTraps(t *testing.T) {
	// Two independent 2Q gates in different traps overlap in time: the
	// makespan is one gate, not two.
	cfg := cfg2()
	initial := [][]int{{0, 1}, {2, 3}}
	st, err := machine.NewState(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultTimeParams().Gate2Q(2)
	if math.Abs(rep.Duration-want) > 1e-9 {
		t.Errorf("parallel duration = %g, want %g", rep.Duration, want)
	}
}

func TestSimulateSerialWithinTrap(t *testing.T) {
	// Two gates in the same trap serialize (Section II-B1).
	cfg := cfg2()
	initial := [][]int{{0, 1, 2}, {3}}
	st, err := machine.NewState(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyGate2Q("ms", 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * DefaultTimeParams().Gate2Q(3)
	if math.Abs(rep.Duration-want) > 1e-9 {
		t.Errorf("serial duration = %g, want %g", rep.Duration, want)
	}
}

func TestSimulateShuttleDegradesFidelity(t *testing.T) {
	// The same two gates, with and without an interposed shuttle: the
	// shuttled version must take longer and end with lower fidelity —
	// the core premise of the paper (Section II-B4).
	cfg := cfg2()

	// Version A: all ions co-located from the start; gates run directly.
	initialA := [][]int{{0, 1, 2}, {3, 4, 5}}
	stA, err := machine.NewState(cfg, initialA)
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := stA.ApplyGate2Q("ms", 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	repA, err := SimulateContext(t.Context(), cfg, initialA, stA.Ops(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Version B: ion 2 starts in T1 and must shuttle before gate 2.
	initialB := [][]int{{0, 1}, {2, 3, 4}}
	stB, err := machine.NewState(cfg, initialB)
	if err != nil {
		t.Fatal(err)
	}
	if err := stB.ApplyGate2Q("ms", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := stB.Hop(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := stB.ApplyGate2Q("ms", 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	repB, err := SimulateContext(t.Context(), cfg, initialB, stB.Ops(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	if repB.LogFidelity >= repA.LogFidelity {
		t.Errorf("shuttled program should have lower fidelity: %g vs %g", repB.LogFidelity, repA.LogFidelity)
	}
	if repB.Duration <= repA.Duration {
		t.Errorf("shuttled program should take longer: %g vs %g", repB.Duration, repA.Duration)
	}
	if repB.MaxChainN <= repA.MaxChainN {
		t.Error("shuttle should raise peak chain energy")
	}
}

func TestSimulateErrors(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	if _, err := SimulateContext(t.Context(), machine.Config{}, initial, ops, DefaultParams()); err == nil {
		t.Error("bad config accepted")
	}
	bad := DefaultParams()
	bad.Time.Split = -1
	if _, err := SimulateContext(t.Context(), cfg, initial, ops, bad); err == nil {
		t.Error("bad time params accepted")
	}
	if _, err := SimulateContext(t.Context(), cfg, [][]int{{0}}, ops, DefaultParams()); err == nil {
		t.Error("bad placement accepted")
	}
	// A trace whose 2Q gate ions were never co-located must be rejected.
	badOps := []machine.Op{{Kind: machine.OpGate2Q, Ion: 0, Ion2: 3, Trap: 0, Trap2: -1, Gate: 0, Name: machine.NameMS}}
	if _, err := SimulateContext(t.Context(), cfg, initial, badOps, DefaultParams()); err == nil {
		t.Error("non-co-located 2Q gate accepted")
	}
}

func TestSimulateEmptyTrace(t *testing.T) {
	cfg := cfg2()
	rep, err := SimulateContext(t.Context(), cfg, [][]int{{0}, {1}}, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 0 || rep.Fidelity != 1 || rep.MeanGateFidelity != 1 {
		t.Errorf("empty trace report: %+v", rep)
	}
}

// Property: replaying any random legal machine trace succeeds, counts match
// the machine's own accounting, and fidelity is in (0, 1].
func TestQuickSimulateRandomTraces(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTraps := 2 + rng.Intn(3)
		cfg := machine.Config{Topology: topo.Linear(nTraps), Capacity: 5, CommCapacity: 1}
		placement := make([][]int, nTraps)
		ion := 0
		for tr := 0; tr < nTraps; tr++ {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				placement[tr] = append(placement[tr], ion)
				ion++
			}
		}
		st, err := machine.NewState(cfg, placement)
		if err != nil {
			return false
		}
		initial := st.Snapshot()
		gateIdx := 0
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0: // random hop
				q := rng.Intn(ion)
				from := st.IonTrap(q)
				nbs := cfg.Topology.Neighbors(from)
				to := nbs[rng.Intn(len(nbs))]
				if st.IsFull(to) {
					continue
				}
				if st.Hop(q, to) != nil {
					return false
				}
			case 1: // 2Q gate on a co-located pair if one exists
				tr := rng.Intn(nTraps)
				chain := st.Chain(tr)
				if len(chain) < 2 {
					continue
				}
				a, b := chain[rng.Intn(len(chain))], chain[rng.Intn(len(chain))]
				if a == b {
					continue
				}
				if st.ApplyGate2Q("ms", a, b, gateIdx) != nil {
					return false
				}
				gateIdx++
			case 2:
				st.ApplyGate1Q("r", rng.Intn(ion), gateIdx)
				gateIdx++
			}
		}
		rep, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), DefaultParams())
		if err != nil {
			return false
		}
		if rep.Shuttles != st.Shuttles() {
			return false
		}
		if rep.Gates2Q != st.OpCount(machine.OpGate2Q) {
			return false
		}
		if rep.Splits != st.OpCount(machine.OpSplit) || rep.Merges != st.OpCount(machine.OpMerge) {
			return false
		}
		return rep.Fidelity > 0 && rep.Fidelity <= 1 && rep.Duration >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: adding a shuttle to a trace never increases program fidelity.
func TestQuickShuttleNeverHelps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := machine.Config{Topology: topo.Linear(3), Capacity: 5, CommCapacity: 1}
		placement := [][]int{{0, 1}, {2, 3}, {4, 5}}
		build := func(extraHops int) (float64, bool) {
			st, err := machine.NewState(cfg, placement)
			if err != nil {
				return 0, false
			}
			initial := st.Snapshot()
			// Random wandering ion.
			q := rng.Intn(6)
			for h := 0; h < extraHops; h++ {
				from := st.IonTrap(q)
				nbs := cfg.Topology.Neighbors(from)
				to := nbs[rng.Intn(len(nbs))]
				if st.IsFull(to) {
					continue
				}
				if st.Hop(q, to) != nil {
					return 0, false
				}
			}
			// Then a fixed gate on whatever trap q ended in (with a partner).
			tr := st.IonTrap(q)
			chain := st.Chain(tr)
			if len(chain) < 2 {
				return 0, false
			}
			partner := chain[0]
			if partner == q {
				partner = chain[1]
			}
			if st.ApplyGate2Q("ms", q, partner, 0) != nil {
				return 0, false
			}
			rep, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), DefaultParams())
			if err != nil {
				return 0, false
			}
			return rep.LogFidelity, true
		}
		seed2 := rng.Int63()
		rng = rand.New(rand.NewSource(seed2))
		base, ok := build(0)
		if !ok {
			return true // skip degenerate layouts
		}
		rng = rand.New(rand.NewSource(seed2))
		hot, ok := build(3)
		if !ok {
			return true
		}
		return hot <= base+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCoolingValidate(t *testing.T) {
	if err := (CoolingParams{}).Validate(); err != nil {
		t.Error("disabled cooling should validate")
	}
	if err := DefaultCooling().Validate(); err != nil {
		t.Error(err)
	}
	bad := CoolingParams{Enabled: true, Threshold: -1, Time: 100}
	if err := bad.Validate(); err == nil {
		t.Error("negative threshold accepted")
	}
	bad = CoolingParams{Enabled: true, Threshold: 1, Time: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero cooling time accepted")
	}
	p := DefaultParams()
	p.Cooling = bad
	cfg := cfg2()
	if _, err := SimulateContext(t.Context(), cfg, [][]int{{0}, {1}}, nil, p); err == nil {
		t.Error("Simulate accepted bad cooling params")
	}
}

// TestCoolingBoundsChainEnergy: with re-cooling enabled, a shuttle-heavy
// trace keeps peak n̄ near the threshold, at the cost of added duration.
func TestCoolingBoundsChainEnergy(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	st, err := machine.NewState(cfg, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	initial := st.Snapshot()
	// Ping-pong an ion many times to pump heat.
	for i := 0; i < 30; i++ {
		to := 1 - st.IonTrap(0)
		if st.IsFull(to) {
			break
		}
		if err := st.Hop(0, to); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ApplyGate2Q("ms", 1, 2, 0); err != nil {
		t.Fatal(err)
	}

	hot, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cooledParams := DefaultParams()
	cooledParams.Cooling = CoolingParams{Enabled: true, Threshold: 1, Time: 400}
	cooled, err := SimulateContext(t.Context(), cfg, initial, st.Ops(), cooledParams)
	if err != nil {
		t.Fatal(err)
	}
	if cooled.Coolings == 0 {
		t.Fatal("expected cooling events")
	}
	if hot.Coolings != 0 {
		t.Error("cooling fired while disabled")
	}
	if cooled.MaxChainN >= hot.MaxChainN {
		t.Errorf("cooling should reduce peak n̄: %g vs %g", cooled.MaxChainN, hot.MaxChainN)
	}
	if cooled.Duration <= hot.Duration {
		t.Errorf("cooling should cost time: %g vs %g", cooled.Duration, hot.Duration)
	}
	if cooled.LogFidelity <= hot.LogFidelity {
		t.Errorf("cooling should improve fidelity here: %g vs %g", cooled.LogFidelity, hot.LogFidelity)
	}
}

func TestSampleSuccessConvergesToAnalytic(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	est, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 20000 {
		t.Errorf("trials = %d", est.Trials)
	}
	// Within 5 standard errors of the analytic product.
	if diff := math.Abs(est.Mean - est.Analytic); diff > 5*est.StdErr+1e-6 {
		t.Errorf("MC mean %g vs analytic %g (stderr %g)", est.Mean, est.Analytic, est.StdErr)
	}
	if est.StdErr < 0 {
		t.Error("negative stderr")
	}
}

func TestSampleSuccessErrors(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	if _, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SampleSuccessContext(t.Context(), machine.Config{}, initial, ops, DefaultParams(), 10, 1); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSampleSuccessDeterministicSeed(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	a, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean {
		t.Error("same seed produced different estimates")
	}
}

// The fidelity list is sized once from the trace's gate ops, so a compiled
// program's list has no spare or regrown capacity.
func TestGateFidelitiesSizedOnce(t *testing.T) {
	c, err := circuit.Decompose(bench.QFT(12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New().CompileContext(context.Background(), c, machine.PaperL6())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateContext(context.Background(), res.Config, res.InitialPlacement, res.Ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.GateFidelities); n == 0 || n != rep.Gates1Q+rep.Gates2Q || cap(rep.GateFidelities) != n {
		t.Errorf("GateFidelities len %d cap %d, want both %d", n, cap(rep.GateFidelities), rep.Gates1Q+rep.Gates2Q)
	}
}

func TestGateFidelitiesRecorded(t *testing.T) {
	cfg, initial, ops := buildTrace(t)
	rep, err := SimulateContext(t.Context(), cfg, initial, ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GateFidelities) != rep.Gates1Q+rep.Gates2Q {
		t.Errorf("recorded %d gate fidelities, want %d", len(rep.GateFidelities), rep.Gates1Q+rep.Gates2Q)
	}
	product := 1.0
	for _, f := range rep.GateFidelities {
		product *= f
	}
	if math.Abs(product-rep.Fidelity) > 1e-12 {
		t.Errorf("product of gate fidelities %g != program fidelity %g", product, rep.Fidelity)
	}
}

func TestSampleSuccessWorkerCountInvariant(t *testing.T) {
	// The chunked seed-splitting scheme must make the estimate a pure
	// function of (seed, trials): runs with different worker counts
	// (GOMAXPROCS) draw identical random streams per chunk.
	cfg, initial, ops := buildTrace(t)
	prev := runtime.GOMAXPROCS(1)
	seq, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 20000, 11)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	// Pin an explicitly parallel run: on a 1-CPU host the ambient setting
	// would make both runs single-worker and the test vacuous.
	runtime.GOMAXPROCS(4)
	par, err := SampleSuccessContext(t.Context(), cfg, initial, ops, DefaultParams(), 20000, 11)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Mean != par.Mean {
		t.Errorf("worker count changed the estimate: %g vs %g", seq.Mean, par.Mean)
	}
}
