package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	bf, found, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no BENCHMARK.json in the repository root")
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins the metric and workload lists the
// program prints to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	if err := checkCatalogue(readBenchmarkFile(t)); err != nil {
		t.Error(err)
	}
}

// smokeRun is one tiny run's parsed output.
type smokeRun struct {
	res      result
	checksum string
}

func runSmall(t *testing.T, workload string, seed int64, trace bool, spans string) smokeRun {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 0.1, trace: trace, spans: spans, small: true}
	if code := execute(context.Background(), o, &out); code != 0 {
		t.Fatalf("exit code %d; output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r smokeRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	for _, l := range lines {
		if sum, ok := strings.CutPrefix(l, "checksum "); ok {
			r.checksum = sum
		}
	}
	if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted < 1 {
		t.Fatalf("result %+v", r.res)
	}
	return r
}

// checkMetrics requires exactly the listed metrics, with their units.
func checkMetrics(t *testing.T, got map[string]metricValue, want []metricEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, declared %q", m.Name, v.Unit, m.Unit)
		}
	}
}

// checkSpans requires every span's parent to exist, every child to lie
// inside its parent, and the children of a span to cover no more than
// its duration, so every self time is >= 0.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int64]span{}
	kids := map[int64][]span{}
	for _, s := range f.Spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for parent, children := range kids {
		p, ok := byID[parent]
		if !ok {
			t.Errorf("span %d (%s) has no parent %d", children[0].ID, children[0].Name, parent)
			continue
		}
		slices.SortFunc(children, func(a, b span) int { return int(a.Start - b.Start) })
		covered, cur := int64(0), int64(-1<<62)
		for _, c := range children {
			if c.Start < p.Start || c.End > p.End {
				t.Errorf("span %d (%s) lies outside its parent %d (%s)", c.ID, c.Name, p.ID, p.Name)
			}
			if lo := max(c.Start, cur); c.End > lo {
				covered += c.End - lo
				cur = c.End
			}
		}
		if self := p.End - p.Start - covered; self < 0 {
			t.Errorf("span %d (%s): self time %d ns", p.ID, p.Name, self)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced three times and
// traced once: the printed metrics must be exactly the ones BENCHMARK.json
// declares, the trace must be well formed, the same seed must give the
// same outputs, and the quality metrics, computed over the reference
// inputs, must not depend on the seed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := runSmall(t, name, 7, false, "")
			b := runSmall(t, name, 7, false, "")
			other := runSmall(t, name, 8, false, "")
			checkMetrics(t, a.res.Metrics, bf.EndToEnd)
			if a.checksum == "" || a.checksum != b.checksum {
				t.Errorf("same seed, checksums %q and %q", a.checksum, b.checksum)
			}
			for _, m := range []string{"opt_shuttles", "fig8_log10_gain_mean"} {
				x, y, z := a.res.Metrics[m], b.res.Metrics[m], other.res.Metrics[m]
				if x != y || x != z || x.Value == 0 {
					t.Errorf("%s: %v and %v with seed 7, %v with seed 8", m, x.Value, y.Value, z.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			traced := runSmall(t, name, 7, true, spans)
			checkMetrics(t, traced.res.Metrics, bf.PerLayer)
			checkSpans(t, spans)
		})
	}
}
