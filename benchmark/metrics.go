package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
)

// metric names a reported number: its unit and which direction is better.
// The lists below are the benchmark's contract and must match
// BENCHMARK.json; every run checks that they do (see checkCatalogue).
type metric struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics of every workload, printed by an
// untraced run. What a metric measures depends on the workload's unit of
// work (a compile, a circuit, a job or a cell); README.md has the table.
// The tail is the whole run's p90. In daemon-jobs the slowest 2-4% of jobs
// are those caught behind the journal's one compaction a run, whose stall
// took 40-300 ms across runs of one binary, so the p95 and p99 read that
// stall's length and moved by 35-57% between runs; they are the per-layer
// service.job_ms_p95 and service.job_ms_p99. cpu_ms_per_op is the one
// timing that a shared host's steal time does not reach (see host.go).
var endToEnd = []metric{
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"opt_shuttles", "count", "lower"},
	{"fig8_log10_gain_mean", "log10", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// compilePairs are Table III's programs in paper order; their rows appear
// as compile_ms.<circuit>.<compiler>.
var (
	paperCircuits  = []string{"Supremacy", "QAOA", "SquareRoot", "QFT", "QuadraticForm"}
	paperCompilers = []string{"baseline", "optimized"}
)

// perLayer are the single-layer metrics a traced run prints. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = func() []metric {
	ms := []metric{
		{"circuit.decompose_ms", "ms", "lower"},
		{"circuit.decompose_mb", "MB", "lower"},
		{"circuit.native_gates", "count", "lower"},
		{"dag.build_ms", "ms", "lower"},
		{"dag.build_mb", "MB", "lower"},
		{"compiler.place_ms", "ms", "lower"},
		{"compiler.schedule_ms", "ms", "lower"},
		{"compiler.schedule_mb", "MB", "lower"},
		{"compiler.reorders", "count", "higher"},
		{"compiler.rebalances", "count", "lower"},
		{"machine.ops_per_compile", "count", "lower"},
	}
	for _, c := range paperCircuits {
		for _, comp := range paperCompilers {
			ms = append(ms, metric{"compile_ms." + c + "." + comp, "ms", "lower"})
		}
	}
	return append(ms, []metric{
		{"verify.ms_p50", "ms", "lower"},
		{"verify.share", "fraction", "lower"},
		{"sim.ms_p50", "ms", "lower"},
		{"sim.share", "fraction", "lower"},
		{"eval.circuit_ms_p50", "ms", "lower"},
		{"eval.circuit_ms_p99", "ms", "lower"},
		{"eval.busy_frac", "fraction", "higher"},
		{"qasm.parse_ms_p50", "ms", "lower"},
		{"ckey.key_us_p50", "us", "lower"},
		{"service.submit_ms_p50", "ms", "lower"},
		{"service.submit_ms_p99", "ms", "lower"},
		{"service.queue_wait_ms_p50", "ms", "lower"},
		{"service.queue_wait_ms_p99", "ms", "lower"},
		{"service.run_ms_p50", "ms", "lower"},
		{"service.run_ms_p99", "ms", "lower"},
		{"service.job_ms_p95", "ms", "lower"},
		{"service.job_ms_p99", "ms", "lower"},
		{"service.rejected", "count", "lower"},
		{"store.appends_per_job", "count", "lower"},
		{"store.wal_bytes", "B", "lower"},
		{"store.compactions", "count", "lower"},
		{"flight.executions", "count", "lower"},
		{"flight.coalesced", "count", "higher"},
		{"cache.hit_ratio", "fraction", "higher"},
		{"cache.lookups", "count", "higher"},
		{"cache.disk_entries", "count", "higher"},
		{"cache.disk_errors", "count", "lower"},
		{"sweep.expand_ms", "ms", "lower"},
		{"sweep.cells_persisted", "count", "higher"},
		{"coord.dispatch_ms_p50", "ms", "lower"},
		{"coord.dispatch_ms_p99", "ms", "lower"},
		{"coord.worker_cell_ms_p50", "ms", "lower"},
		{"coord.busy_frac", "fraction", "higher"},
		{"coord.reassigned", "count", "lower"},
		{"coord.retried", "count", "lower"},
		{"gen.late_ms_p99", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"host.steal_pct", "%", "lower"},
	}...)
}()

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root: the
// working directory, or its parent when run from benchmark/. found is
// false when neither holds one.
func loadBenchmarkFile() (bf benchmarkFile, found bool, err error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return bf, false, err
		}
		if err := json.Unmarshal(data, &bf); err != nil {
			return bf, false, fmt.Errorf("%s: %w", path, err)
		}
		return bf, true, nil
	}
	return bf, false, nil
}

func catalogue(ms []metric) []metricEntry {
	out := make([]metricEntry, len(ms))
	for i, m := range ms {
		out[i] = metricEntry{m.name, m.unit, m.better}
	}
	return out
}

// checkCatalogue reports where the workloads and metrics the program
// knows differ from the ones bf declares.
func checkCatalogue(bf benchmarkFile) error {
	var errs []error
	if got := catalogue(endToEnd); !slices.Equal(got, bf.EndToEnd) {
		errs = append(errs, fmt.Errorf("end-to-end metrics: program %v, BENCHMARK.json %v", got, bf.EndToEnd))
	}
	if got := catalogue(perLayer); !slices.Equal(got, bf.PerLayer) {
		errs = append(errs, fmt.Errorf("per-layer metrics: program %v, BENCHMARK.json %v", got, bf.PerLayer))
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		errs = append(errs, fmt.Errorf("workloads: program %v, BENCHMARK.json %v", workloadNames(), names))
	}
	return errors.Join(errs...)
}
