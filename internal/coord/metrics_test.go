package coord_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzzle/internal/coord"
)

// TestMetricsGolden pins the coordinator's /metrics output byte for byte
// after an in-process Run of a two-cell grid. The summed dispatch wall
// time is the one time-valued series: its name and label are pinned, its
// value is masked. Rewrite the golden only with
//
//	go test ./internal/coord -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	c := inProcessCoord(t, coord.Config{})
	if _, err := c.Run(t.Context(), tinyGrid()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	lines := strings.SplitAfter(string(body), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "muzzlecoord_worker_latency_seconds_sum{") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "<masked>\n"
		}
	}
	got := "Content-Type: " + resp.Header.Get("Content-Type") + "\n\n" + strings.Join(lines, "")

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/coord -run TestMetricsGolden -update to create it)", err)
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
