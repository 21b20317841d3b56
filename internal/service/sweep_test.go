package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muzzle"
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

func testGrid() sweep.Grid {
	return sweep.Grid{
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyLine, Traps: 4},
			{Family: sweep.FamilyRing, Traps: 4},
		},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitRandom, Qubits: 8, Gates2Q: 20, Seed: 3},
		},
	}
}

func postSweep(t *testing.T, srv *httptest.Server, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func sweepView(t *testing.T, srv *httptest.Server, id string) (service.JobView, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view service.JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

// Every malformed sweep/topology parameter must come back as a clean 400
// with a stable error code — never a worker crash.
func TestSweepSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, service.Config{Workers: 1})

	bad := func(name string, mut func(*sweep.Grid), wantCode string) {
		g := testGrid()
		mut(&g)
		resp := postSweep(t, srv, g)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
			return
		}
		var apiErr struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("%s: bad error body: %v", name, err)
			return
		}
		if apiErr.Code != wantCode {
			t.Errorf("%s: code = %q (%s), want %q", name, apiErr.Code, apiErr.Error, wantCode)
		}
	}

	bad("ring of 2", func(g *sweep.Grid) {
		g.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyRing, Traps: 2}}
	}, "bad_grid")
	bad("grid 0x3", func(g *sweep.Grid) {
		g.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyGrid, Rows: 0, Cols: 3}}
	}, "bad_grid")
	bad("disconnected custom", func(g *sweep.Grid) {
		g.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyCustom, Traps: 4, Edges: [][2]int{{0, 1}, {2, 3}}}}
	}, "bad_grid")
	bad("unknown family", func(g *sweep.Grid) {
		g.Topologies = []sweep.TopologySpec{{Family: "torus", Traps: 4}}
	}, "bad_grid")
	bad("unknown compiler", func(g *sweep.Grid) { g.Compilers = []string{"nope"} }, "bad_grid")
	bad("comm >= capacity", func(g *sweep.Grid) { g.CommCapacities = []int{6} }, "bad_grid")
	bad("no circuits", func(g *sweep.Grid) { g.Circuits = nil }, "bad_grid")
	bad("bad circuit kind", func(g *sweep.Grid) { g.Circuits = []sweep.CircuitSpec{{Kind: "ghz"}} }, "bad_grid")
	bad("past the trap limit", func(g *sweep.Grid) {
		g.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyLine, Traps: sweep.MaxTraps + 1}}
	}, "bad_grid")
	bad("past the cell limit", func(g *sweep.Grid) {
		g.Circuits = []sweep.CircuitSpec{{Kind: sweep.CircuitRandom, Qubits: 8, Gates2Q: 8, Count: 1000000}}
	}, "bad_grid")
	bad("past the gate limit", func(g *sweep.Grid) { g.Circuits = []sweep.CircuitSpec{{Kind: sweep.CircuitQFT, Qubits: 1448}} }, "bad_grid")

	// Malformed JSON and unknown fields are 400s too.
	for name, body := range map[string]string{
		"truncated json": `{"topologies": [`,
		"unknown field":  `{"topologies": [{"family":"line","traps":4}], "circuits": [{"kind":"qft","qubits":4}], "bogus": 1}`,
	} {
		resp := postSweep(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestSweepEndToEnd(t *testing.T) {
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	mgr, srv := newTestServer(t, service.Config{Workers: 1, Cache: cache})

	resp := postSweep(t, srv, testGrid())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/sweeps/") {
		t.Fatalf("Location = %q", loc)
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Source != "sweep" {
		t.Fatalf("source = %q, want sweep", view.Source)
	}
	if view.CircuitsTotal != 2 {
		t.Fatalf("total cells = %d, want 2", view.CircuitsTotal)
	}

	// The SSE stream must carry one "cell" event per cell (each with its
	// report attached) before the terminal state event.
	client := &http.Client{Timeout: 60 * time.Second}
	sresp, err := client.Get(srv.URL + "/v1/sweeps/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", sresp.StatusCode)
	}
	cellEvents := 0
	deadline := time.Now().Add(60 * time.Second)
	buf := make([]byte, 0, 1<<20)
	tmp := make([]byte, 4096)
	terminal := false
	for !terminal && time.Now().Before(deadline) {
		n, err := sresp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		for {
			idx := bytes.Index(buf, []byte("\n\n"))
			if idx < 0 {
				break
			}
			frame := buf[:idx]
			buf = buf[idx+2:]
			for _, line := range bytes.Split(frame, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("data: ")) {
					continue
				}
				var ev service.Event
				if err := json.Unmarshal(bytes.TrimPrefix(line, []byte("data: ")), &ev); err != nil {
					t.Fatalf("bad SSE payload %q: %v", line, err)
				}
				switch ev.Kind {
				case service.EventCell:
					cellEvents++
					if ev.Cell == nil || ev.Cell.ID == "" {
						t.Errorf("cell event without report: %+v", ev)
					}
				case service.EventState:
					if ev.State.Terminal() {
						if ev.State != service.StateDone {
							t.Fatalf("terminal state = %s (%s)", ev.State, ev.Error)
						}
						terminal = true
					}
				}
			}
		}
		if err != nil {
			break
		}
	}
	if !terminal {
		t.Fatal("stream ended without terminal state")
	}
	if cellEvents != 2 {
		t.Errorf("cell events = %d, want 2", cellEvents)
	}

	final, status := sweepView(t, srv, view.ID)
	if status != http.StatusOK {
		t.Fatalf("GET sweep status = %d", status)
	}
	if final.State != service.StateDone || final.CircuitsDone != 2 {
		t.Fatalf("final view: state=%s done=%d", final.State, final.CircuitsDone)
	}
	if final.Sweep == nil || len(final.Sweep.Cells) != 2 {
		t.Fatalf("final view missing sweep report: %+v", final.Sweep)
	}
	for _, c := range final.Sweep.Cells {
		if c.Error != "" || len(c.Outcomes) != 2 {
			t.Errorf("cell %s: error=%q outcomes=%d", c.ID, c.Error, len(c.Outcomes))
		}
	}

	// A second identical sweep is served from the shared cache.
	missesBefore := cache.Stats().Misses
	resp2 := postSweep(t, srv, testGrid())
	var view2 service.JobView
	if err := json.NewDecoder(resp2.Body).Decode(&view2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	waitDone(t, mgr, view2.ID, 60*time.Second)
	s := cache.Stats()
	if s.Misses != missesBefore {
		t.Errorf("second sweep recompiled: misses %d -> %d", missesBefore, s.Misses)
	}
	if s.Hits < 2 {
		t.Errorf("second sweep hits = %d, want >= 2", s.Hits)
	}

	// The two reports are identical cell for cell.
	final2, _ := sweepView(t, srv, view2.ID)
	b1, _ := json.Marshal(final.Sweep)
	b2, _ := json.Marshal(final2.Sweep)
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached sweep report differs:\n%s\nvs\n%s", b1, b2)
	}
}

// waitDone polls the manager until the job is terminal.
func waitDone(t *testing.T, mgr *service.Manager, id string, timeout time.Duration) service.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in %s", id, timeout)
	return service.JobView{}
}

// The /v1/sweeps namespace serves only sweep jobs, and vice versa a
// compile job's id is not a sweep.
func TestSweepNamespaceIsolation(t *testing.T) {
	mgr, srv := newTestServer(t, service.Config{Workers: 1})

	jobView := submit(t, srv, service.Request{QASM: testQASM})
	if _, status := sweepView(t, srv, jobView.ID); status != http.StatusNotFound {
		t.Errorf("compile job via /v1/sweeps: status = %d, want 404", status)
	}
	if _, status := sweepView(t, srv, "deadbeefdeadbeefdeadbeef"); status != http.StatusNotFound {
		t.Errorf("unknown sweep id: status = %d, want 404", status)
	}
	// The DELETE and stream routes are namespace-guarded too: a compile
	// job must not be cancelable (or streamable) through /v1/sweeps.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+jobView.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE compile job via /v1/sweeps: status = %d, want 404", dresp.StatusCode)
	}
	sresp, err := http.Get(srv.URL + "/v1/sweeps/" + jobView.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Errorf("stream compile job via /v1/sweeps: status = %d, want 404", sresp.StatusCode)
	}
	final := waitDone(t, mgr, jobView.ID, 60*time.Second)
	if final.State == service.StateCanceled {
		t.Errorf("compile job was canceled through the sweeps namespace")
	}

	// And symmetrically: a sweep id is invisible to the /v1/jobs routes.
	resp := postSweep(t, srv, testGrid())
	var sv service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/jobs/" + sv.ID},
		{http.MethodDelete, "/v1/jobs/" + sv.ID},
		{http.MethodGet, "/v1/jobs/" + sv.ID + "/stream"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		presp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s on sweep id: status = %d, want 404", probe.method, probe.path, presp.StatusCode)
		}
	}
	waitDone(t, mgr, sv.ID, 60*time.Second)
}

func TestSweepCancel(t *testing.T) {
	// A grid big enough to still be running when the cancel lands: the
	// paper suite on two topologies, single worker.
	g := sweep.Grid{
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyLine, Traps: 6}},
		Circuits:   []sweep.CircuitSpec{{Kind: sweep.CircuitPaper}},
	}
	mgr, srv := newTestServer(t, service.Config{Workers: 1, SweepParallelism: 1})
	resp := postSweep(t, srv, g)
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+view.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	final := waitDone(t, mgr, view.ID, 60*time.Second)
	if final.State != service.StateCanceled && final.State != service.StateDone {
		t.Fatalf("state after cancel = %s", final.State)
	}
}
