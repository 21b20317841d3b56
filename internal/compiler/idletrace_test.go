package compiler

import (
	"runtime"
	"testing"

	"muzzle/internal/machine"
)

// Idle trace buffers survive garbage collection, the list holds at most
// its capacity, and a buffer above maxIdleTraceOps is not kept.
func TestIdleTracesAreBounded(t *testing.T) {
	for takeTrace() != nil {
	}
	keepTrace(make([]machine.Op, 3, 8))
	runtime.GC()
	runtime.GC()
	if buf := takeTrace(); len(buf) != 0 || cap(buf) != 8 {
		t.Fatalf("after two collections took len %d cap %d, want the kept buffer emptied", len(buf), cap(buf))
	}
	keepTrace(make([]machine.Op, 0, maxIdleTraceOps+1))
	if buf := takeTrace(); buf != nil {
		t.Fatalf("kept a buffer of capacity %d above the bound", cap(buf))
	}
	for i := 0; i <= cap(idleTraces); i++ {
		keepTrace(make([]machine.Op, 0, 8))
	}
	if n := len(idleTraces); n != cap(idleTraces) {
		t.Fatalf("%d idle buffers, want the capacity %d", n, cap(idleTraces))
	}
	for takeTrace() != nil {
	}
}
