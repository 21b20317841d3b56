package obs

import "sync"

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts[i] counts observations <= buckets[i], plus an implicit
// +Inf bucket. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64
	counts  []uint64 // len(buckets)+1; last is +Inf
	sum     float64
	count   uint64
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{
		buckets: append([]float64(nil), buckets...),
		counts:  make([]uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is a point-in-time copy, cumulative per bucket (the
// Prometheus le-bucket convention).
type HistogramSnapshot struct {
	// Buckets are the upper bounds in seconds.
	Buckets []float64 `json:"buckets"`
	// Cumulative[i] counts observations <= Buckets[i]; the total count
	// (the +Inf bucket) is Count.
	Cumulative []uint64 `json:"cumulative"`
	Sum        float64  `json:"sum"`
	Count      uint64   `json:"count"`
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Buckets:    append([]float64(nil), h.buckets...),
		Cumulative: make([]uint64, len(h.buckets)),
		Sum:        h.sum,
		Count:      h.count,
	}
	var running uint64
	for i := range h.buckets {
		running += h.counts[i]
		s.Cumulative[i] = running
	}
	return s
}
