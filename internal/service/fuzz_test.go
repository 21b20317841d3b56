package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"muzzle/internal/service"
)

// FuzzRequestBodies posts arbitrary bytes to the three JSON endpoints of a
// drained manager. Decoding and validation (QASM parse, grid expansion,
// cell index) still run, but the drain admits nothing, so no input starts
// a compile. Every answer must be a structured 400, 413 or 503, a body
// that is not one JSON value (json.Valid) never reaches the drain's 503,
// and no input may panic a handler. Seeded with the README's request
// bodies:
//
//	go test -run=^$ -fuzz=FuzzRequestBodies -fuzztime=10s ./internal/service
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []string{
		`{"qasm": "OPENQASM 2.0;\nqreg q[6];\ncx q[0],q[5];\n", "compilers": ["baseline", "optimized"]}`,
		`{"random": {"limit": 10, "seed": 7}}`,
		`{"random": {"limit": 10, "seed": 7}} trailing garbage`,
		`{
  "topologies": [
    {"family": "line", "traps": 6},
    {"family": "ring", "traps": 6},
    {"family": "grid", "rows": 2, "cols": 3}
  ],
  "capacities": [13, 17],
  "comm_capacities": [2],
  "compilers": ["baseline", "optimized"],
  "circuits": [
    {"kind": "qft", "qubits": 16},
    {"kind": "random", "qubits": 30, "gates_2q": 300, "seed": 7, "count": 4}
  ]
}`,
		`{
  "grid": {
    "topologies": [{"family": "line", "traps": 6}],
    "capacities": [17], "comm_capacities": [2],
    "circuits": [{"kind": "qft", "qubits": 16}]
  },
  "index": 0
}`,
	} {
		f.Add([]byte(seed))
	}
	mgr := service.New(service.Config{Workers: 1})
	mgr.Drain(f.Context())
	h := mgr.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/jobs", "/v1/sweeps", "/v1/cells"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			case http.StatusServiceUnavailable:
				if !json.Valid(body) {
					t.Fatalf("POST %s = 503 for a body that is not one JSON value, want 400 or 413: %s", path, rec.Body)
				}
			default:
				t.Fatalf("POST %s = %d, want 400, 413 or 503: %s", path, rec.Code, rec.Body)
			}
			var apiErr map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || len(apiErr) != 2 || apiErr["code"] == "" || apiErr["error"] == "" {
				t.Fatalf("POST %s = %d with body %q, want {\"code\",\"error\"} both set", path, rec.Code, rec.Body)
			}
		}
		if n := mgr.MetricsSnapshot().PanicsRecovered; n != 0 {
			t.Fatalf("%d handler panics recovered", n)
		}
	})
}
