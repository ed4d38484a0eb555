// Package lg is the lockgraph fixture: lock-order cycles, recursive
// acquisition through a helper, direct and transitive blocking under a
// lock (including across packages, via lgdep), the deadline-under-lock
// rule for network I/O, and every exemption — with violations marked
// by want comments.
package lg

import (
	"io"
	"net"
	"sync"
	"time"

	"lgdep"
)

type T struct {
	a sync.Mutex
	b sync.Mutex
	c sync.Mutex
	d sync.Mutex

	reqs chan int
	conn net.Conn

	conns map[net.Conn]bool
	idle  []net.Conn
}

// ab and ba take a and b in opposite orders: the classic deadlock.
func (t *T) ab() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock() // want "lock-order cycle among lg.T.a, lg.T.b"
	t.b.Unlock()
}

func (t *T) ba() {
	t.b.Lock()
	defer t.b.Unlock()
	t.a.Lock()
	t.a.Unlock()
}

// lockTwice reacquires c through a helper while already holding it.
func (t *T) lockTwice() {
	t.c.Lock()
	defer t.c.Unlock()
	t.lockC() // want "lock lg.T.c acquired while already held"
}

func (t *T) lockC() {
	t.c.Lock()
	t.c.Unlock()
}

// Direct unbounded blocking inside the critical section.
func (t *T) recvUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	<-t.reqs // want "unbounded channel receive while holding lg.T.a"
}

func (t *T) sendUnderLock(v int) {
	t.a.Lock()
	t.reqs <- v // want "unbounded channel send while holding lg.T.a"
	t.a.Unlock()
}

func (t *T) waitUnderLock(wg *sync.WaitGroup) {
	t.a.Lock()
	defer t.a.Unlock()
	wg.Wait() // want "unbounded sync.WaitGroup.Wait while holding lg.T.a"
}

func (t *T) rangeUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	for v := range t.reqs { // want "unbounded range over channel while holding lg.T.a"
		_ = v
	}
}

func (t *T) selectUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	select { // want "unbounded select with no default or timer case while holding lg.T.a"
	case v := <-t.reqs:
		_ = v
	case t.reqs <- 0:
	}
}

// Transitive blocking: the park is two calls away in another package.
func (t *T) callBlockerUnderLock() {
	t.b.Lock()
	defer t.b.Unlock()
	lgdep.Chain() // want "call to lgdep.Chain while holding lg.T.b reaches an unbounded channel receive .via lgdep.Wait."
}

func (t *T) callRecvUnderLock(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	lgdep.Recv(t.conn, buf) // want "call to lgdep.Recv while holding lg.T.c reaches net.Conn.Read with no deadline armed"
}

// A deadline armed before the call bounds the callee's network I/O.
func (t *T) armedRecv(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	t.conn.SetDeadline(time.Now().Add(time.Second))
	lgdep.Recv(t.conn, buf)
}

// The deadline-under-lock rule, direct: network I/O while a mutex is
// held must come after a deadline is armed, in source order.
func (t *T) badIO(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	t.conn.Read(buf) // want "net.Conn.Read with no deadline armed while holding lg.T.c"
}

func (t *T) goodIO(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	t.conn.SetDeadline(time.Now().Add(time.Second))
	t.conn.Read(buf)
}

func (t *T) unlockedIO(buf []byte) {
	t.conn.Read(buf) // no lock held: fine
}

// Arming after the read bounds nothing: the read is already parked.
func (t *T) readBeforeArm(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	t.conn.Read(buf) // want "net.Conn.Read with no deadline armed while holding lg.T.c"
	t.conn.SetDeadline(time.Now().Add(time.Second))
}

// Builtins do table bookkeeping, not I/O, whatever their arguments.
func (t *T) connBookkeeping() {
	t.c.Lock()
	defer t.c.Unlock()
	delete(t.conns, t.conn)
	t.idle = append(t.idle, t.conn)
}

// A conn handed to code that cannot be followed into — no body in the
// program, or a parameter that forgets it is a conn — is charged at
// the call site; a callee that keeps the net.Conn type is summarized
// instead, and this one does no I/O.
func (t *T) readFullUnderLock(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	io.ReadFull(t.conn, buf) // want "call passing a net.Conn with no deadline armed while holding lg.T.c"
}

func (t *T) widenedUnderLock(buf []byte) {
	t.c.Lock()
	defer t.c.Unlock()
	lgdep.Drain(t.conn, buf) // want "call passing a net.Conn with no deadline armed while holding lg.T.c"
}

func (t *T) followedUnderLock() string {
	t.c.Lock()
	defer t.c.Unlock()
	return lgdep.Peer(t.conn)
}

// A select with a default never parks.
func (t *T) pollUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	select {
	case v := <-t.reqs:
		_ = v
	default:
	}
}

// A timer case bounds the park by the clock.
func (t *T) timedRecvUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case v := <-t.reqs:
		_ = v
	case <-timer.C:
	}
}

// A channel made in this function is a structured-concurrency join:
// bounded by local progress, not peer progress.
func (t *T) localJoin() {
	t.a.Lock()
	defer t.a.Unlock()
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

// A WaitGroup declared here joins only goroutines launched here:
// bounded by local progress.
func (t *T) localWGJoin() {
	t.a.Lock()
	defer t.a.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Done()
	}()
	wg.Wait()
}

// A callback literal stored for later does not run inside this
// critical section: no recursive-acquisition report.
type job struct{ run func() }

func (t *T) enqueueCallback(jobs *[]job) {
	t.a.Lock()
	defer t.a.Unlock()
	*jobs = append(*jobs, job{run: func() {
		t.a.Lock()
		t.a.Unlock()
	}})
}

// An immediately-invoked literal does run here: its park is caught.
func (t *T) iife() {
	t.a.Lock()
	defer t.a.Unlock()
	func() {
		<-t.reqs // want "unbounded channel receive while holding lg.T.a"
	}()
}

// A goroutine's acquisitions never propagate to the spawn-time held
// set: no lg.T.a → lg.T.d edge, so da() below closes no cycle.
func (t *T) spawnUnderLock() {
	t.a.Lock()
	defer t.a.Unlock()
	go func() {
		t.d.Lock()
		t.d.Unlock()
	}()
}

func (t *T) da() {
	t.d.Lock()
	defer t.d.Unlock()
	t.a.Lock()
	t.a.Unlock()
}

// locked runs with a held by convention; the holds directive seeds the
// held set, so its direct park is still caught.
//
//rmpvet:holds T.a
func (t *T) locked() {
	<-t.reqs // want "unbounded channel receive while holding lg.T.a"
}

func (t *T) allowed() {
	t.a.Lock()
	defer t.a.Unlock()
	//rmpvet:allow lockgraph -- diagnostic poll, peers always drain
	<-t.reqs
}
