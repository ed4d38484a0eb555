// Package a is the lockcheck fixture: every rule the analyzer
// enforces, with violations marked by want comments.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	// n is the count. Guarded by mu.
	n int

	rw sync.RWMutex
	// m is the other count. Guarded by rw.
	m int
}

func (c *counter) good() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) bad() {
	c.n++ // want "write to counter.n .guarded by counter.mu. without holding the lock"
}

func (c *counter) badRead() int {
	return c.n // want "read counter.n"
}

func (c *counter) readUnderRLock() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.m
}

func (c *counter) writeUnderRLock() {
	c.rw.RLock()
	c.m = 1 // want "holding only the read half"
	c.rw.RUnlock()
}

func (c *counter) unlockTooEarly() {
	c.mu.Lock()
	c.mu.Unlock()
	c.n++ // want "write to counter.n"
}

// helper runs with the caller's lock by convention.
//
//rmpvet:holds counter.mu
func (c *counter) helper() int { return c.n }

func newCounter() *counter {
	c := &counter{}
	c.n = 1 // constructor initialization: exempt
	return c
}

func (c *counter) allowed() {
	//rmpvet:allow lockcheck -- intentionally racy diagnostics knob
	c.n++
}

// goroutines do not inherit their creator's locks.
func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "write to counter.n"
	}()
}

// owner guards item's state across structs.
type owner struct {
	mu sync.Mutex
}

type item struct {
	// v belongs to the owning table. Guarded by owner.mu.
	v int
}

func touch(o *owner, it *item) {
	o.mu.Lock()
	it.v = 1
	o.mu.Unlock()
	it.v = 2 // want "write to item.v .guarded by owner.mu."
}
