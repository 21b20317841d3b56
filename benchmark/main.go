// Command muzzlebench is muzzle's end-to-end benchmark. It runs one named
// workload per process against the repository's own packages, checks
// every output against a reference, and prints each metric as
// "name value unit" followed by a one-line JSON result:
//
//	muzzlebench -workload table3-compile -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//	table3-compile     Table III: the five NISQ programs x {baseline,
//	                   optimized}, compiled back to back on one goroutine
//	random-suite-eval  the paper's random-suite evaluation (compile,
//	                   verify, simulate) through eval's worker pool
//	daemon-jobs        open-loop POST /v1/jobs against an in-process
//	                   muzzled with cache, single-flight and a fsync'd
//	                   journal; 80% of bodies repeat
//	coord-sweep        coordinator sweeps over two in-process muzzled
//	                   workers sharing one cold disk cache
//
// -trace 0 measures the end-to-end metrics. -trace 1 runs three phases of
// a third of the time each — untraced, traced, untraced — recording spans
// around every call the benchmark makes into a layer during the middle
// one; it prints the per-layer metrics and writes the spans to -spans.
// -runs N re-runs the workload in N child processes with seeds
// seed..seed+N-1 and prints each metric's median and quartiles.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times and until a
// setupShare-th of its timed loop's length has passed (1.3 s of a 20-s
// run); setup_s is the median, and only the last instance is measured.
// Set-ups take 0.3-70 ms, so a fixed handful of them left the median at
// the mercy of the first, slower ones: with nine, it moved by up to 50%
// between runs of coord-sweep.
const (
	minSetups  = 9
	setupShare = 15
)

// config is what a workload is built from.
type config struct {
	seed int64
	// small shrinks every input so the smoke test runs each workload in
	// well under a second; the measured workloads never set it.
	small bool
}

// referenceSeed seeds each workload's reference inputs: the circuits the
// quality metrics (opt_shuttles, fig8_log10_gain_mean) are computed over.
// They are the same for every -seed, so those metrics are exact and any
// change in them is a change in the compiler's output. It is the seed of
// the paper's random suite in internal/bench.
const referenceSeed = 20220318

// phase is what one timed loop measured.
type phase struct {
	ops, failed int
	elapsed     time.Duration
	// p50 and p90 are the latency of one unit of work in milliseconds.
	p50, p90 float64
	// layer holds the per-layer metrics the phase produced: counters on
	// every phase, span-derived timings on a traced one.
	layer map[string]float64
}

// quality is the deterministic output of a run. optShuttles and fig8 come
// from the reference inputs alone; checksum covers every output, so it is
// a function of the seed.
type quality struct {
	optShuttles int
	fig8        float64
	checksum    string
}

// workload is one traffic mix. A run calls setup, warmup, then measure
// once (untraced) or three times (untraced, traced, untraced), then check
// and close.
type workload interface {
	setup(ctx context.Context) error
	warmup(ctx context.Context) error
	// measure runs the timed loop for about d; tr is nil when untraced.
	measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error)
	quality() quality
	// check compares the outputs with their references.
	check(ctx context.Context) error
	close()
}

var workloads = map[string]func(config) workload{
	"table3-compile":    newTable3,
	"random-suite-eval": newSuiteEval,
	"daemon-jobs":       newDaemonJobs,
	"coord-sweep":       newCoordSweep,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	out      string
	runs     int
	small    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: table3-compile, random-suite-eval, daemon-jobs, coord-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed run")
	flag.IntVar(&traceFlag, "trace", 0, "1: record spans and print the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "also write the result with provenance and every counter to this JSON file")
	flag.IntVar(&o.runs, "runs", 0, "run N child processes with seeds seed..seed+N-1 and print each metric's median and quartiles")
	flag.Parse()
	o.trace = traceFlag != 0
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "muzzlebench: need -workload (one of %s) and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A run whose metric lists have drifted from BENCHMARK.json's would be
	// compared under the wrong names or bounds, so it does not start.
	bf, found, err := loadBenchmarkFile()
	if err == nil && found {
		err = checkCatalogue(bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "muzzlebench: BENCHMARK.json: %v\n", err)
		os.Exit(2)
	}
	if o.runs > 0 {
		os.Exit(spread(o, traceFlag, os.Stdout))
	}
	os.Exit(execute(context.Background(), o, os.Stdout))
}

func workloadNames() []string {
	return slices.Sorted(maps.Keys(workloads))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and prints its metrics; it returns the exit
// code: 0 when every check passed, 1 when a check failed (the result is
// still printed), 2 when the run could not complete.
func execute(ctx context.Context, o options, stdout io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "muzzlebench %s: %v\n", o.workload, err)
		return 2
	}
	cfg := config{seed: o.seed, small: o.small}
	d := time.Duration(o.seconds * float64(time.Second))

	var w workload
	var setupS []float64
	for start := time.Now(); len(setupS) < minSetups || time.Since(start) < d/setupShare; {
		if w != nil {
			w.close()
		}
		// Collect the previous instance's garbage first, so no set-up pays
		// for the one before it.
		runtime.GC()
		w = workloads[o.workload](cfg)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return fail(fmt.Errorf("setup: %w", err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	if err := w.warmup(ctx); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}

	values := map[string]float64{"setup_s": percentile(setupS, 0.5)}
	rss := watchRSS()
	ops, failed, tr, err := measureAll(ctx, w, d, o.trace, values)
	values["peak_rss_mb"] = rss.medianPeak()
	if err != nil {
		return fail(err)
	}
	q := w.quality()
	values["opt_shuttles"] = float64(q.optShuttles)
	values["fig8_log10_gain_mean"] = q.fig8

	checkErr := w.check(ctx)
	if checkErr == nil && failed > 0 {
		checkErr = fmt.Errorf("%d of %d operations failed", failed, ops)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "muzzlebench %s: output check failed: %v\n", o.workload, checkErr)
	}

	list := endToEnd
	if o.trace {
		list = perLayer
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+o.workload+".json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fail(err)
		}
		if err := writeSpans(path, o.workload, o.seed, tr.snapshot()); err != nil {
			return fail(err)
		}
	}
	res := result{Correct: checkErr == nil, Attempted: max(ops, 1), Failed: failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}

	prov := provenance(o)
	for _, k := range slices.Sorted(maps.Keys(prov)) {
		fmt.Fprintf(stdout, "# %s %s\n", k, prov[k])
	}
	for _, k := range slices.Sorted(maps.Keys(values)) {
		fmt.Fprintf(stdout, "%s %s %s\n", k, strconv.FormatFloat(values[k], 'g', -1, 64), unitOf(k))
	}
	fmt.Fprintf(stdout, "failed_frac %g fraction\n", float64(failed)/float64(max(ops, 1)))
	fmt.Fprintf(stdout, "checksum %s\n", q.checksum)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(map[string]any{
			"provenance": prov, "values": values, "checksum": q.checksum, "result": res,
		}, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if checkErr != nil {
		return 1
	}
	return 0
}

// measureAll runs the timed loop, untraced or as three phases around a
// traced one, and adds what it measured to values.
func measureAll(ctx context.Context, w workload, d time.Duration, trace bool, values map[string]float64) (ops, failed int, tr *tracer, err error) {
	if !trace {
		runtime.GC()
		a0, cpu0, steal := totalAlloc(), processCPU(), watchSteal()
		ph, err := w.measure(ctx, d, nil)
		if err != nil {
			return 0, 0, nil, err
		}
		alloc, cpu := totalAlloc()-a0, processCPU()-cpu0
		n := float64(max(ph.ops, 1))
		values["latency_ms_p50"] = ph.p50
		values["latency_ms_p90"] = ph.p90
		values["throughput_per_s"] = float64(ph.ops) / ph.elapsed.Seconds()
		values["cpu_ms_per_op"] = ms(cpu) / n
		values["alloc_mb_per_op"] = float64(alloc) / 1e6 / n
		values["host.steal_pct"] = steal.pct()
		maps.Copy(values, ph.layer)
		return ph.ops, ph.failed, nil, nil
	}
	steal := watchSteal()
	defer func() { values["host.steal_pct"] = steal.pct() }()
	// Untraced, traced, untraced: comparing the traced phase with the mean
	// of the two around it cancels drift in the host's speed.
	var ph [3]phase
	for i := range ph {
		var ptr *tracer
		if i == 1 {
			tr = newTracer()
			ptr = tr
		}
		runtime.GC()
		if ph[i], err = w.measure(ctx, d/3, ptr); err != nil {
			return 0, 0, nil, err
		}
		ops += ph[i].ops
		failed += ph[i].failed
	}
	for _, m := range perLayer {
		values[m.name] = 0
	}
	maps.Copy(values, ph[1].layer)
	if base := (ph[0].p50 + ph[2].p50) / 2; base > 0 {
		values["trace.overhead_pct"] = 100 * (ph[1].p50 - base) / base
	}
	return ops, failed, tr, nil
}

// unitOf looks a metric's unit up in the catalogue; counters outside it
// are plain counts.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "count"
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// provenance records what produced a result.
func provenance(o options) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "-dirty"
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]string{
		"workload":   o.workload,
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"trace":      strconv.FormatBool(o.trace),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpu,
		"commit":     commit,
	}
}

// checksum hashes a run's deterministic outputs.
func checksum(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// spread runs the workload in child processes with consecutive seeds and
// prints the median and quartiles of every metric, plus the interquartile
// spread as a share of the median — the statistic each bound in
// BENCHMARK.json is set against.
func spread(o options, traceFlag int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "muzzlebench:", err)
		return 2
	}
	samples := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceFlag))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "muzzlebench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "muzzlebench: run %d: %v\n", i+1, err)
			return 1
		}
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "muzzlebench: run %d (seed %d) failed its output check\n", i+1, seed)
			return 1
		}
		for k, v := range r.Metrics {
			samples[k] = append(samples[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Fprintf(stdout, "# run %d seed %d: %s\n", i+1, seed, lines[len(lines)-1])
	}
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	summary := map[string]stat{}
	for _, k := range slices.Sorted(maps.Keys(samples)) {
		q1, q2, q3 := quartiles(samples[k])
		s := stat{Median: q2, Q1: q1, Q3: q3}
		if q2 != 0 {
			s.Spread = (q3 - q1) / q2
		}
		summary[k] = s
		fmt.Fprintf(stdout, "%-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% %s\n",
			k, s.Median, s.Q1, s.Q3, 100*s.Spread, units[k])
	}
	line, err := json.Marshal(map[string]any{"workload": o.workload, "runs": o.runs, "metrics": summary})
	if err != nil {
		fmt.Fprintln(os.Stderr, "muzzlebench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
