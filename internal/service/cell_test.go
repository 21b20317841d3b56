package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"muzzle/internal/coord"
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

func postCell(t *testing.T, srv *httptest.Server, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/cells", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// POST /v1/cells is synchronous: the response body is the finished cell's
// report, identical in content to what a local sweep run of the same grid
// would record for that index.
func TestCellEndpointExecutesOneCell(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 2})
	e, err := sweep.Expand(testGrid())
	if err != nil {
		t.Fatal(err)
	}

	resp := postCell(t, srv, coord.CellRequest{Grid: testGrid(), Index: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cell status = %d, want 200", resp.StatusCode)
	}
	var cr sweep.CellReport
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Index != 1 || cr.ID != e.Cells[1].ID {
		t.Fatalf("got cell %d (%s), want 1 (%s)", cr.Index, cr.ID, e.Cells[1].ID)
	}
	if cr.Error != "" {
		t.Fatalf("cell error: %s", cr.Error)
	}
	if len(cr.Outcomes) != len(e.Grid.Compilers) {
		t.Fatalf("outcomes = %d, want one per compiler (%d)", len(cr.Outcomes), len(e.Grid.Compilers))
	}
	for _, o := range cr.Outcomes {
		if o.Shuttles <= 0 {
			t.Errorf("compiler %s reported %d shuttles", o.Compiler, o.Shuttles)
		}
	}
}

// Malformed cell requests are clean 400s with stable codes — a coordinator
// treats them as permanent, so they must never be returned for load
// reasons.
func TestCellEndpointValidation(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})

	check := func(name string, body any, wantStatus int, wantCode string) {
		t.Helper()
		resp := postCell(t, srv, body)
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status = %d, want %d", name, resp.StatusCode, wantStatus)
		}
		var apiErr struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Code != wantCode {
			t.Fatalf("%s: code = %q (%v), want %q", name, apiErr.Code, err, wantCode)
		}
	}

	check("bad json", `{"grid": `, http.StatusBadRequest, "bad_json")
	check("unknown field", `{"grid": {}, "index": 0, "nope": 1}`, http.StatusBadRequest, "bad_json")

	g := testGrid()
	g.Topologies = nil
	check("invalid grid", coord.CellRequest{Grid: g, Index: 0}, http.StatusBadRequest, "bad_grid")
	g = testGrid()
	g.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyRing, Traps: sweep.MaxTraps + 1}}
	check("grid past the limits", coord.CellRequest{Grid: g, Index: 0}, http.StatusBadRequest, "bad_grid")

	check("index out of range", coord.CellRequest{Grid: testGrid(), Index: 99}, http.StatusBadRequest, "bad_cell")
	check("negative index", coord.CellRequest{Grid: testGrid(), Index: -1}, http.StatusBadRequest, "bad_cell")
	check("negative timeout", coord.CellRequest{Grid: testGrid(), Index: 0, TimeoutMS: -5}, http.StatusBadRequest, "bad_request")
}

// Cell submissions ride the same admission control as every other job:
// past the queue bound they get 429 + Retry-After, the signal the
// coordinator's backpressure path honors.
func TestCellEndpointBackpressure(t *testing.T) {
	// A gated compiler freezes the worker, so the queue fills
	// deterministically.
	cellGate := newGate("cellgate")
	mgr, srv := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})

	base := cellGate.count.Load()
	a := submit(t, srv, service.Request{Name: "a", QASM: testQASM, Compilers: []string{cellGate.name}})
	waitFor(t, "job a to occupy the worker", func() bool { return cellGate.count.Load() == base+1 })
	b := submit(t, srv, service.Request{Name: "b", QASM: testQASM, Compilers: []string{cellGate.name}})

	resp := postCell(t, srv, coord.CellRequest{Grid: testGrid(), Index: 0})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity cell = %d, want 429", resp.StatusCode)
	}
	if retry, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || retry < 1 || retry > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}

	cellGate.allow(0, 2)
	waitState(t, mgr, a.ID, service.StateDone)
	waitState(t, mgr, b.ID, service.StateDone)
}

// /healthz exposes the worker identity block a coordinator uses to tell
// fleet members apart.
func TestHealthzWorkerIdentity(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1, WorkerID: "w-test-1"})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string           `json:"status"`
		Worker coord.WorkerInfo `json:"worker"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Fatalf("status = %q", body.Status)
	}
	if body.Worker.ID != "w-test-1" {
		t.Fatalf("worker id = %q, want w-test-1", body.Worker.ID)
	}
	if body.Worker.Version != service.Version {
		t.Fatalf("worker version = %q, want %q", body.Worker.Version, service.Version)
	}
	if body.Worker.PID <= 0 {
		t.Fatalf("worker pid = %d", body.Worker.PID)
	}
}

// A cell whose execution fails deterministically (here: a circuit too wide
// for the machine point) still answers 200 — the failure is part of the
// deterministic report, and the coordinator persists it like a local run
// would.
func TestCellEndpointDeterministicFailureIs200(t *testing.T) {
	g := testGrid()
	g.Circuits = []sweep.CircuitSpec{{Kind: sweep.CircuitQFT, Qubits: 40}} // cannot fit 4 traps x capacity 6
	_, srv := newTestServer(t, service.Config{Workers: 1})

	resp := postCell(t, srv, coord.CellRequest{Grid: g, Index: 0})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deterministic failure status = %d, want 200", resp.StatusCode)
	}
	var cr sweep.CellReport
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Error == "" {
		t.Fatal("expected a deterministic cell error, got success")
	}
	if !strings.Contains(cr.Error, "exceed") {
		t.Fatalf("unexpected cell error %q", cr.Error)
	}
}
