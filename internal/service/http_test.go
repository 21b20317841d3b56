package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muzzle"
	"muzzle/internal/service"
)

const testQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[6];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
cx q[4],q[5];
cx q[0],q[5];
`

// countingCompiles counts factory invocations of the "counting" compiler —
// the eval harness builds one compiler instance per compilation, so the
// counter equals the number of compile passes performed.
var (
	countingCompiles atomic.Int64
	countingOnce     sync.Once
)

func registerCounting(t *testing.T) {
	t.Helper()
	countingOnce.Do(func() {
		muzzle.MustRegisterCompiler("counting", func() *muzzle.Compiler {
			countingCompiles.Add(1)
			return muzzle.NewOptimizedCompiler()
		})
	})
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Manager, *httptest.Server) {
	t.Helper()
	mgr := service.New(cfg)
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return mgr, srv
}

func submit(t *testing.T, srv *httptest.Server, req service.Request) service.JobView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.State != service.StatePending && view.State != service.StateRunning {
		t.Fatalf("initial state = %s", view.State)
	}
	return view
}

// streamEvents consumes the job's SSE stream until a terminal state event
// (or timeout), returning every event in order.
func streamEvents(t *testing.T, srv *httptest.Server, id string, timeout time.Duration) []service.Event {
	t.Helper()
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var events []service.Event
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Kind == service.EventState && ev.State.Terminal() {
			return events
		}
	}
	t.Fatalf("stream ended without a terminal event (%d events, scan err %v)", len(events), scanner.Err())
	return nil
}

func TestSubmitStreamDone(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})
	view := submit(t, srv, service.Request{QASM: testQASM})

	events := streamEvents(t, srv, view.ID, 60*time.Second)
	last := events[len(events)-1]
	if last.State != service.StateDone {
		t.Fatalf("terminal state = %s (error %q), want done", last.State, last.Error)
	}
	var circuits int
	for _, ev := range events {
		if ev.Kind == service.EventCircuit {
			circuits++
			if ev.Result == nil {
				t.Fatalf("circuit event without result: %+v", ev)
			}
			if ev.Result.Outcomes["baseline"] == nil || ev.Result.Outcomes["optimized"] == nil {
				t.Fatalf("circuit event missing default pair: %+v", ev.Result)
			}
		}
	}
	if circuits != 1 {
		t.Fatalf("circuit events = %d, want 1", circuits)
	}

	// The snapshot agrees with the stream.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.CircuitsDone != 1 || final.CircuitsTotal != 1 {
		t.Fatalf("final view = %+v", final)
	}
	if len(final.Results) != 1 || final.Results[0].Qubits != 6 {
		t.Fatalf("final results = %+v", final.Results)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("final view missing timestamps")
	}
}

func TestCancelMidRun(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})
	// The full 120-circuit random suite cannot finish before the cancel
	// lands; cooperative cancellation must still end the job promptly.
	view := submit(t, srv, service.Request{Random: &service.RandomRequest{}})

	type result struct{ events []service.Event }
	ch := make(chan result, 1)
	go func() {
		ch <- result{streamEvents(t, srv, view.ID, 120*time.Second)}
	}()

	// Wait until the job is running, then cancel it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == service.StateRunning {
			break
		}
		if v.State.Terminal() {
			t.Fatalf("job reached %s before cancel", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}

	res := <-ch
	last := res.events[len(res.events)-1]
	if last.State != service.StateCanceled {
		t.Fatalf("terminal state = %s, want canceled", last.State)
	}
	for _, ev := range res.events {
		if ev.Kind == service.EventCircuit && ev.Total != 120 {
			t.Fatalf("circuit event total = %d, want 120", ev.Total)
		}
	}

	// Canceling again conflicts.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status = %d, want 409", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})
	// 21 nested two-call definitions expand one application to 2^21 gates.
	nested := "OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; }\n"
	for i := 1; i <= 21; i++ {
		nested += fmt.Sprintf("gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	nested += "g21 q[0];\n"
	cases := []struct {
		name string
		body string
		code string
	}{
		{"unknown compiler", fmt.Sprintf(`{"qasm": %q, "compilers": ["nope"]}`, testQASM), "unknown_compiler"},
		{"duplicate compiler", fmt.Sprintf(`{"qasm": %q, "compilers": ["baseline", "baseline"]}`, testQASM), "bad_request"},
		{"no source", `{}`, "bad_request"},
		{"both sources", fmt.Sprintf(`{"qasm": %q, "random": {}}`, testQASM), "bad_request"},
		{"bad qasm", `{"qasm": "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[9];\n"}`, "bad_qasm"},
		{"qasm over the qubit limit", `{"qasm": "OPENQASM 2.0; qreg q[65537]; h q;"}`, "bad_qasm"},
		{"qasm over the gate limit", fmt.Sprintf(`{"qasm": %q}`, nested), "bad_qasm"},
		{"qasm over the parameter limit", `{"qasm": "OPENQASM 2.0; qreg q[65536]; foo(` + strings.Repeat("0,", 64) + `0) q;"}`, "bad_qasm"},
		{"bad json", `{"qasm": 12`, "bad_json"},
		{"unknown field", `{"qsam": "typo"}`, "bad_json"},
		{"trailing garbage", `{"random": {"limit": 1, "seed": 7}} trailing garbage`, "bad_json"},
		{"second value", `{"random": {"limit": 1, "seed": 7}}{"qasm": "not qasm"}`, "bad_json"},
		{"negative limit", `{"random": {"limit": -1}}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var apiErr struct {
				Code  string `json:"code"`
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if apiErr.Code != tc.code {
				t.Fatalf("code = %q (%s), want %q", apiErr.Code, apiErr.Error, tc.code)
			}
		})
	}

	if resp, err := http.Get(srv.URL + "/v1/jobs/nonexistent"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
		}
	}
}

// TestSubmitTrailingWhitespace: only whitespace may follow a body's JSON
// value, and it is accepted.
func TestSubmitTrailingWhitespace(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"random": {"limit": 1, "seed": 7}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
}

func TestCompilersHealthzMetrics(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})

	resp, err := http.Get(srv.URL + "/v1/compilers")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Compilers []muzzle.CompilerInfo `json:"compilers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, c := range listing.Compilers {
		found[c.Name] = c.Builtin
	}
	if !found["baseline"] || !found["optimized"] {
		t.Fatalf("catalog missing builtin pair: %+v", listing.Compilers)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`muzzled_jobs{state="done"}`,
		"muzzled_jobs_submitted_total",
		"muzzled_compile_latency_seconds_bucket",
		"muzzled_compile_latency_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheHitEndToEnd is the acceptance scenario: submit the same QASM
// job twice against a daemon with a compile cache; the second run must be
// served from cache — the hit counter increments and no compiler is
// invoked — while streaming per-circuit results identical to the first.
func TestCacheHitEndToEnd(t *testing.T) {
	registerCounting(t)
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServer(t, service.Config{Workers: 1, Cache: cache})

	run := func() []byte {
		view := submit(t, srv, service.Request{QASM: testQASM, Compilers: []string{"counting"}})
		events := streamEvents(t, srv, view.ID, 60*time.Second)
		last := events[len(events)-1]
		if last.State != service.StateDone {
			t.Fatalf("terminal state = %s (error %q)", last.State, last.Error)
		}
		var payload []byte
		for _, ev := range events {
			if ev.Kind != service.EventCircuit {
				continue
			}
			b, err := json.Marshal(ev.Result)
			if err != nil {
				t.Fatal(err)
			}
			payload = append(payload, b...)
			payload = append(payload, '\n')
		}
		if len(payload) == 0 {
			t.Fatal("no circuit results streamed")
		}
		return payload
	}

	first := run()
	compilesAfterFirst := countingCompiles.Load()
	if compilesAfterFirst == 0 {
		t.Fatal("first job never invoked the compiler")
	}
	statsAfterFirst := cache.Stats()
	if statsAfterFirst.Misses == 0 {
		t.Fatalf("first job should miss the cache: %+v", statsAfterFirst)
	}

	second := run()
	if got := countingCompiles.Load(); got != compilesAfterFirst {
		t.Errorf("second job invoked the compiler %d more times, want 0 (cache hit)",
			got-compilesAfterFirst)
	}
	stats := cache.Stats()
	if stats.Hits <= statsAfterFirst.Hits {
		t.Errorf("cache hits did not increment: %+v -> %+v", statsAfterFirst, stats)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached run streamed different results:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// A finished job's subscription replays its history over a closed,
// unbuffered channel: no event buffer is made for a job with nothing left
// to say.
func TestSubscribeFinishedJob(t *testing.T) {
	mgr, srv := newTestServer(t, service.Config{Workers: 1})
	view := submit(t, srv, service.Request{QASM: testQASM})
	waitDone(t, mgr, view.ID, 30*time.Second)
	history, live, stop, err := mgr.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if len(history) == 0 || !history[len(history)-1].State.Terminal() {
		t.Fatalf("history %v does not end in a terminal state", history)
	}
	if cap(live) != 0 {
		t.Errorf("live channel buffers %d events, want 0", cap(live))
	}
	if _, ok := <-live; ok {
		t.Error("live channel is open")
	}
}
