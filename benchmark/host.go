package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the CPU time, user and system, the process has used.
// A guest kernel that accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING)
// leaves out of it the time the hypervisor gave the guest's CPUs to other
// tenants, which every wall-clock time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/stat: 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// stealTicks returns the steal time of all CPUs from /proc/stat — how long
// the hypervisor ran something else while a CPU of this guest had work —
// in clock ticks; ok is false where the kernel does not report it.
func stealTicks() (ticks float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[8], 64)
	return v, err == nil
}

// stealWatch measures the share of the machine's CPU time stolen over an
// interval.
type stealWatch struct {
	start time.Time
	ticks float64
	ok    bool
}

func watchSteal() stealWatch {
	t, ok := stealTicks()
	return stealWatch{start: time.Now(), ticks: t, ok: ok}
}

// pct returns the stolen share of the interval's CPU time in percent, 0
// where steal is not reported.
func (s stealWatch) pct() float64 {
	t, ok := stealTicks()
	if !s.ok || !ok {
		return 0
	}
	avail := time.Since(s.start).Seconds() * clockTicks * float64(runtime.NumCPU())
	return 100 * (t - s.ticks) / avail
}
