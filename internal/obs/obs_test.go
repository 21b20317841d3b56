package obs

import (
	"net/http/httptest"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	want := []uint64{1, 3, 4} // cumulative: <=0.1, <=1, <=10
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Errorf("Cumulative[%d] = %d, want %d", i, s.Cumulative[i], w)
		}
	}
	if s.Sum != 56.05 {
		t.Errorf("Sum = %g, want 56.05", s.Sum)
	}
}

// TestWriterFormat pins the exposition text: integers never print in
// exponent form, floats print as %g, bools as 1 or 0, a label value is
// quoted, and a histogram's le labels and +Inf bucket read as Prometheus
// expects.
func TestWriterFormat(t *testing.T) {
	var w Writer
	Single(&w, "big_total", Counter, "An integer sample.", uint64(1234567))
	Single(&w, "ratio", Gauge, "A float sample.", 1234567.5)
	Single(&w, "tiny", Gauge, "A small float sample.", 0.00025)
	w.Family("up", Gauge, "One labelled sample per worker.")
	Sample(&w, "up", "worker", `http://a:1"x`, true)
	Sample(&w, "up", "worker", "in-process", false)
	h := NewHistogram([]float64{.0005, 1, 2.5})
	for _, v := range []float64{0.0001, 2, 40} {
		h.Observe(v)
	}
	w.Histogram("lat_seconds", "A histogram.", h.Snapshot())

	rec := httptest.NewRecorder()
	w.Serve(rec)
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	const want = `# HELP big_total An integer sample.
# TYPE big_total counter
big_total 1234567
# HELP ratio A float sample.
# TYPE ratio gauge
ratio 1.2345675e+06
# HELP tiny A small float sample.
# TYPE tiny gauge
tiny 0.00025
# HELP up One labelled sample per worker.
# TYPE up gauge
up{worker="http://a:1\"x"} 1
up{worker="in-process"} 0
# HELP lat_seconds A histogram.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.0005"} 1
lat_seconds_bucket{le="1"} 1
lat_seconds_bucket{le="2.5"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 42.0001
lat_seconds_count 3
`
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
