// Package a exercises the guardedby replay: straight-line locking,
// branch-local unlocks, closures, the exemption conventions, and a
// mis-annotated mutex name.
package a

import "sync"

type counter struct {
	mu    sync.Mutex
	n     int      // guarded by mu
	items []string // guarded by mu
}

type broken struct {
	lock sync.Mutex
	v    int // guarded by mux // want `struct broken has no field mux`
}

// inc locks correctly.
func (c *counter) inc() {
	c.mu.Lock()
	c.n++ // locked: no diagnostic
	c.mu.Unlock()
}

// incDeferred locks with a deferred unlock.
func (c *counter) incDeferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++ // still locked: deferred unlock releases at return
}

// raw never locks.
func (c *counter) raw() int {
	return c.n // want `counter.n is guarded by mu but accessed without holding c.mu`
}

// relock drops the lock mid-function and touches state in the gap.
func (c *counter) relock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `counter.n is guarded by mu but accessed without holding c.mu`
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// branches unlocks per switch case, like the scheduler's Cancel.
func (c *counter) branches(mode int) int {
	c.mu.Lock()
	switch {
	case c.n == 0: // case conditions still see the lock
		c.mu.Unlock()
		return 0
	default:
		n := c.n
		c.mu.Unlock()
		return n
	}
}

// spawn starts a goroutine: the closure must lock for itself.
func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `counter.n is guarded by mu but accessed without holding c.mu`
	}()
	go func() {
		c.mu.Lock()
		c.n++ // locked inside the closure: no diagnostic
		c.mu.Unlock()
	}()
}

// growLocked relies on the caller's lock, per the naming convention.
func (c *counter) growLocked(s string) {
	c.items = append(c.items, s)
}

// drain relies on the caller's lock via the directive.
//
//muzzle:locked every caller holds c.mu
func (c *counter) drain() {
	c.items = c.items[:0]
}

// newCounter is a constructor: the composite literal exempts it.
func newCounter() *counter {
	c := &counter{n: 1}
	c.items = append(c.items, "seed")
	return c
}

func use(...int) {}

// positions reads guarded fields with nothing held in every expression
// position the replay must reach; each access is a finding.
func (c *counter) positions(ch chan int) {
	go use(c.n)              // want `counter.n is guarded by mu but accessed without holding c.mu`
	defer use(c.n)           // want `counter.n is guarded by mu but accessed without holding c.mu`
	switch any(c.n).(type) { // want `counter.n is guarded by mu but accessed without holding c.mu`
	}
	for c.n = range c.items { // want `counter.n is guarded by mu but accessed without holding c.mu` `counter.items is guarded by mu but accessed without holding c.mu`
	}
	select {
	case ch <- c.n: // want `counter.n is guarded by mu but accessed without holding c.mu`
	default:
	}
	for ; ; c.n++ { // want `counter.n is guarded by mu but accessed without holding c.mu`
	}
}
