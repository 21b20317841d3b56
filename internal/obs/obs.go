// Package obs renders metrics in the Prometheus text exposition format
// (https://prometheus.io/docs/instrumenting/exposition_formats/) for the
// /metrics endpoints of muzzled and the sweep coordinator, and holds the
// fixed-bucket histogram behind muzzled's compile-latency series.
//
// It is a writer, not a registry: each caller keeps its counters where
// they are and renders a snapshot of them on every scrape, so /healthz,
// the CLIs and the benchmark keep reading the one copy. Stdlib only: the
// repo takes no dependencies.
package obs

import (
	"bytes"
	"fmt"
	"net/http"
)

// Metric types, as a family's TYPE line names them.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Value is a sample value. Integers print as integers (%d), floats as %g,
// and a bool as 1 or 0.
type Value interface {
	int | int64 | uint64 | float64 | bool
}

// Writer accumulates one exposition. The zero value is ready to use.
type Writer struct {
	b bytes.Buffer
}

// Family opens a metric family: its HELP and TYPE lines. The samples
// written after it belong to it.
func (w *Writer) Family(name, typ, help string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the open family. With a non-empty key it
// carries the one label key="value", the value quoted as %q quotes it.
func Sample[V Value](w *Writer, name, key, value string, v V) {
	w.b.WriteString(name)
	if key != "" {
		fmt.Fprintf(&w.b, "{%s=%q}", key, value)
	}
	var x any = v
	if b, isBool := x.(bool); isBool {
		x = 0
		if b {
			x = 1
		}
	}
	// %v prints integers as %d and floats as %g.
	fmt.Fprintf(&w.b, " %v\n", x)
}

// Single opens a family and writes its one unlabelled sample.
func Single[V Value](w *Writer, name, typ, help string, v V) {
	w.Family(name, typ, help)
	Sample(w, name, "", "", v)
}

// Histogram writes a histogram family from a snapshot: one cumulative
// _bucket sample per upper bound, labelled le with the bound as %g, the
// +Inf bucket, then _sum and _count.
func (w *Writer) Histogram(name, help string, h HistogramSnapshot) {
	w.Family(name, "histogram", help)
	for i, ub := range h.Buckets {
		Sample(w, name+"_bucket", "le", fmt.Sprintf("%g", ub), h.Cumulative[i])
	}
	Sample(w, name+"_bucket", "le", "+Inf", h.Count)
	Sample(w, name+"_sum", "", "", h.Sum)
	Sample(w, name+"_count", "", "", h.Count)
}

// Serve answers the request with the exposition, under the text format's
// Content-Type.
func (w *Writer) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.Write(w.b.Bytes()) //nolint:errcheck // headers are out; nothing to recover
}
