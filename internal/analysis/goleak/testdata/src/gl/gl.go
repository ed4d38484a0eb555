// Package gl is the goleak fixture: every ownership kind (stop
// channel, WaitGroup, conn, flag, context, structured locals), every
// shutdown-proof shape (direct close, nil-guarded close, once.Do,
// delegation through a helper, cross-package), and the violations —
// missing owner, owner never cancelled, owner cancelled only
// conditionally, mixed atomic/plain field access.
package gl

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gldep"
)

func work() { _ = 1 }

// W is the canonical worker: loop selects on the stop field, Close
// closes it unconditionally.
type W struct {
	stop chan struct{}
}

func (w *W) Run() { go w.loop() }
func (w *W) loop() {
	for {
		select {
		case <-w.stop:
			return
		}
	}
}
func (w *W) Close() { close(w.stop) }

// NoClose's stop channel exists but nothing ever closes it.
type NoClose struct {
	stop chan struct{}
}

func (n *NoClose) Run() {
	go n.loop() // want "goroutine is owned by gl.NoClose.stop but no shutdown method of its type ever closed it"
}
func (n *NoClose) loop() { <-n.stop }

// Cond closes its stop channel only behind an unrelated condition:
// the path where really is false leaks the goroutine.
type Cond struct {
	stop   chan struct{}
	really bool
}

func (c *Cond) Run()  { go c.loop() }
func (c *Cond) loop() { <-c.stop }
func (c *Cond) Close() {
	if c.really {
		close(c.stop) // want "stop channel gl.Cond.stop is closed only on some paths of this shutdown method"
	}
}

// NG guards the close with the field's own nil check — the
// conditional-start idiom, required because close\(nil\) panics — so
// the close counts as unconditional.
type NG struct {
	stop chan struct{}
}

func (n *NG) Run()  { go n.loop() }
func (n *NG) loop() { <-n.stop }
func (n *NG) Close() {
	if n.stop != nil {
		close(n.stop)
	}
}

// Else closes the channel, but only in a method no shutdown method
// reaches.
type Else struct {
	stop chan struct{}
}

func (e *Else) Run() {
	go e.loop() // want "closed only in .*handle — no shutdown method of gl.Else provably reaches it"
}
func (e *Else) loop()   { <-e.stop }
func (e *Else) handle() { close(e.stop) }

// Del's Close delegates to a non-shutdown-named helper; the fixpoint
// carries the close fact up the call chain.
type Del struct {
	stop chan struct{}
}

func (d *Del) Run()     { go d.loop() }
func (d *Del) loop()    { <-d.stop }
func (d *Del) Close()   { d.cleanup() }
func (d *Del) cleanup() { close(d.stop) }

// OnceW closes through sync.Once.Do — idempotent shutdown still
// counts as provable.
type OnceW struct {
	stop chan struct{}
	once sync.Once
}

func (o *OnceW) Run()   { go o.loop() }
func (o *OnceW) loop()  { <-o.stop }
func (o *OnceW) Close() { o.once.Do(func() { close(o.stop) }) }

// WGer signals a field WaitGroup that Stop waits.
type WGer struct {
	wg sync.WaitGroup
}

func (g *WGer) Run() {
	g.wg.Add(1)
	go g.work()
}
func (g *WGer) work() { defer g.wg.Done(); work() }
func (g *WGer) Stop() { g.wg.Wait() }

// WGNo signals a field WaitGroup nobody ever waits.
type WGNo struct {
	wg sync.WaitGroup
}

func (n *WGNo) Run() {
	n.wg.Add(1)
	go n.work() // want "goroutine is owned by gl.WGNo.wg but no shutdown method of its type ever waited it"
}
func (n *WGNo) work() { defer n.wg.Done(); work() }

// Sess blocks on a conn field; Close closes the conn, which is the
// cancellation.
type Sess struct {
	c net.Conn
}

func (s *Sess) Run() { go s.readLoop() }
func (s *Sess) readLoop() {
	buf := make([]byte, 16)
	for {
		if _, err := s.c.Read(buf); err != nil {
			return
		}
	}
}
func (s *Sess) Close() error { return s.c.Close() }

// FB polls a shutdown-named boolean field that Close sets.
type FB struct {
	closed bool
}

func (f *FB) Run() { go f.loop() }
func (f *FB) loop() {
	for {
		if f.closed {
			return
		}
	}
}
func (f *FB) Close() { f.closed = true }

// AB polls an atomic.Bool flag that Close stores.
type AB struct {
	closing atomic.Bool
}

func (a *AB) Run() { go a.loop() }
func (a *AB) loop() {
	for {
		if a.closing.Load() {
			return
		}
	}
}
func (a *AB) Close() { a.closing.Store(true) }

// Structured concurrency: channels and WaitGroups in the spawning
// function own their goroutines.
func structured() {
	done := make(chan struct{})
	go func() {
		<-done
	}()
	close(done)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Done()
	}()
	wg.Wait()
}

// A context is an owner wherever it came from.
func withCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Cross-package: the goroutine body and its shutdown proof both live
// in gldep.
func spawnRemote() {
	p := gldep.New()
	go p.Loop()
	p.Close()
}

// No owner at all — looping or not, nothing ties these to anything.
func noOwnerLoop() {
	go func() { // want "goroutine has no owner"
		for {
			work()
		}
	}()
}

func noOwnerLine() {
	go work() // want "goroutine has no owner"
}

// A ticker paces a loop; it does not end one. Nothing outside the
// goroutine can stop it.
func tickerOnly() {
	go func() { // want "goroutine has no owner"
		t := time.NewTicker(time.Second)
		for range t.C {
			work()
		}
	}()
}

// A named method that spins on a type with a stop channel it never
// consults: having an owner type is not having an owner.
func (w *W) spawnSpin() {
	go w.spin() // want "goroutine has no owner"
}

func (w *W) spin() {
	n := 0
	for {
		n++
	}
}

// The escape hatch still works.
func allowed() {
	//rmpvet:allow goleak -- metrics flush, bounded by process exit
	go func() {
		for {
			work()
		}
	}()
}

// M mixes function-style atomics with plain access to the same
// field; the constructor's pre-publication write is exempt.
type M struct {
	n uint64
}

func NewM() *M {
	m := &M{}
	m.n = 1
	return m
}

func (m *M) Add() { atomic.AddUint64(&m.n, 1) }
func (m *M) Read() uint64 {
	return m.n // want "field gl.M.n is accessed with sync/atomic"
}
