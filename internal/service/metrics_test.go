package service_test

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle"
	"muzzle/internal/service"
	"muzzle/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current output")

// wideQASM needs 200 qubits, more than the default six-trap machine holds,
// so its compile fails deterministically.
const wideQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[200];
cx q[0],q[199];
`

// maskedSeries are the time-valued series of muzzled's /metrics: their
// names and labels are pinned, their values are not. The WAL size varies
// with the length of the journal's timestamps.
var maskedSeries = []string{
	"muzzled_uptime_seconds",
	"muzzled_compile_latency_seconds_bucket",
	"muzzled_compile_latency_seconds_sum",
	"muzzled_store_wal_bytes",
}

// maskValues replaces the value of every sample of the named series with
// "<masked>", leaving HELP and TYPE lines, names and labels as they are.
func maskValues(text string, series []string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if cut := strings.IndexAny(line, "{ "); cut >= 0 {
			name = line[:cut]
		}
		for _, s := range series {
			if name == s {
				lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "<masked>\n"
			}
		}
	}
	return strings.Join(lines, "")
}

// scrapeMetrics returns GET /metrics as its Content-Type header, a blank
// line and the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	return "Content-Type: " + resp.Header.Get("Content-Type") + "\n\n" + string(body)
}

// checkGolden compares got with testdata/<name>, rewriting it first under
// -update, and names the first line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/service -run TestMetricsGolden -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs: got %d lines, want %d", path, len(gl), len(wl))
}

// TestMetricsGolden pins muzzled's /metrics output byte for byte, with
// time-valued series masked, after a fixed sequence on a manager with a
// disk-backed cache, a flight group and a journal: one QASM job compiled
// to done, the same job again (a cache hit), and one job whose compile
// fails. Rewrite the golden only with
//
//	go test ./internal/service -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64, Dir: filepath.Join(dir, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.Open(filepath.Join(dir, "journal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	mgr, srv := newTestServer(t, service.Config{
		Workers: 1, Cache: cache, Flight: muzzle.NewFlight(), Journal: journal,
	})

	for _, step := range []struct {
		req  service.Request
		want service.State
	}{
		{service.Request{Name: "chain", QASM: testQASM}, service.StateDone},
		{service.Request{Name: "chain", QASM: testQASM}, service.StateDone},
		{service.Request{Name: "wide", QASM: wideQASM}, service.StateFailed},
	} {
		view := submit(t, srv, step.req)
		waitState(t, mgr, view.ID, step.want)
	}
	// A job turns terminal before its final record is journaled; every job
	// writes three records (submit, running, final).
	waitFor(t, "the final journal records", func() bool {
		return mgr.MetricsSnapshot().Store.Appends == 3*3
	})

	checkGolden(t, "metrics.golden", maskValues(scrapeMetrics(t, srv.URL), maskedSeries))
}
