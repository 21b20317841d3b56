package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// rssWatch follows the process's resident set while the timed loop runs:
// it samples the resident set every rssEvery and keeps the largest sample
// of each rssWindow. The process's high-water mark (VmHWM) is the largest
// of those windows; it swung by 15% between identical runs because it
// depends on where a few garbage collections happened to land, while the
// median window moves only when the program's footprint does.
type rssWatch struct {
	stop chan struct{}
	done chan []float64
}

const (
	rssEvery  = 10 * time.Millisecond
	rssWindow = time.Second
)

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var peaks []float64
		peak := rssMB()
		start := time.Now()
		for {
			select {
			case <-w.stop:
				w.done <- append(peaks, peak)
				return
			case now := <-tick.C:
				peak = max(peak, rssMB())
				if now.Sub(start) >= rssWindow {
					peaks = append(peaks, peak)
					peak, start = 0, now
				}
			}
		}
	}()
	return w
}

// medianPeak stops the watch and returns the median of its windows' peaks
// in MB.
func (w *rssWatch) medianPeak() float64 {
	close(w.stop)
	return percentile(<-w.done, 0.5)
}

var pageMB = float64(os.Getpagesize()) / (1 << 20)

// rssMB reads the resident set from /proc/self/statm; where that does not
// exist it falls back to the memory the Go runtime holds from the OS.
func rssMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * pageMB
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
