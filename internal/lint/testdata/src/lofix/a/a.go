// Package a seeds lock-order cycles for the lockorder fixture: one closed
// by two direct acquisitions, one closed through a call whose callee
// acquires transitively, one closed in a go statement's argument. Another
// pair of mutexes is always taken in a consistent order, and two more are
// ordered only across a goroutine start; those must stay quiet.
package a

import "sync"

// S carries the direct AB/BA cycle.
type S struct {
	a sync.Mutex
	b sync.Mutex
}

// AB acquires a then b. The cycle report anchors here: this is the
// earliest edge that participates in it.
func (s *S) AB() {
	s.a.Lock()
	s.b.Lock() // want `potential deadlock: lock order cycle among a\.S\.a, a\.S\.b`
	s.b.Unlock()
	s.a.Unlock()
}

// BA closes the cycle.
func (s *S) BA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}

// T carries the interprocedural cycle: x is held while a call transitively
// acquires y.
type T struct {
	x sync.Mutex
	y sync.Mutex
}

func (t *T) lockY() {
	t.y.Lock()
	t.y.Unlock()
}

// XthenCallY adds x→y through lockY's summary; the report anchors at the
// call that creates the edge.
func (t *T) XthenCallY() {
	t.x.Lock()
	t.lockY() // want `potential deadlock: lock order cycle among a\.T\.x, a\.T\.y`
	t.x.Unlock()
}

// YthenX closes the cycle directly.
func (t *T) YthenX() {
	t.y.Lock()
	t.x.Lock()
	t.x.Unlock()
	t.y.Unlock()
}

// U is the control: both functions agree on the order p before q, so no
// cycle exists and nothing is reported.
type U struct {
	p sync.Mutex
	q sync.Mutex
}

func (u *U) One() {
	u.p.Lock()
	u.q.Lock()
	u.q.Unlock()
	u.p.Unlock()
}

func (u *U) Two() {
	u.p.Lock()
	defer u.p.Unlock()
	u.q.Lock()
	defer u.q.Unlock()
}

// Branches verifies that an unlock inside one branch does not leak into
// the sibling branch's replay (copies, not shared state).
func (u *U) Branches(flip bool) {
	u.p.Lock()
	if flip {
		u.q.Lock()
		u.q.Unlock()
	} else {
		u.q.Lock()
		u.q.Unlock()
	}
	u.p.Unlock()
}

// V's cycle closes in a go statement's argument, which runs where the
// statement stands, under the held lock.
type V struct{ m, n sync.Mutex }

func (v *V) lockN() int {
	v.n.Lock()
	defer v.n.Unlock()
	return 0
}

func consume(int) {}

func (v *V) MthenGoArg() {
	v.m.Lock()
	go consume(v.lockN()) // want `potential deadlock: lock order cycle among a\.V\.m, a\.V\.n`
	v.m.Unlock()
}

func (v *V) NthenM() {
	v.n.Lock()
	v.m.Lock()
	v.m.Unlock()
	v.n.Unlock()
}

// W only spawns the goroutine that takes q, so holding p around spawn
// orders nothing: the new goroutine never holds p. No cycle.
type W struct{ p, q sync.Mutex }

func (w *W) lockQ() {
	w.q.Lock()
	w.q.Unlock()
}

func (w *W) spawn() { go w.lockQ() }

func (w *W) PthenSpawn() {
	w.p.Lock()
	w.spawn()
	w.p.Unlock()
}

func (w *W) QthenP() {
	w.q.Lock()
	w.p.Lock()
	w.p.Unlock()
	w.q.Unlock()
}

// X is W with the goroutine starting a closure that takes q. No cycle.
type X struct{ p, q sync.Mutex }

func (x *X) lockQ() {
	x.q.Lock()
	x.q.Unlock()
}

func (x *X) later() {
	f := func() { x.lockQ() }
	go f()
}

func (x *X) PthenLater() {
	x.p.Lock()
	x.later()
	x.p.Unlock()
}

func (x *X) QthenP() {
	x.q.Lock()
	x.p.Lock()
	x.p.Unlock()
	x.q.Unlock()
}
