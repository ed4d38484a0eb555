package wire

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// gatedConn is a connection end whose vectored writes are counted and
// can be held at a gate: the first one announces itself on entered and
// waits for gate to close, standing in for a write blocked on a full
// socket buffer.
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}

	mu      sync.Mutex
	out     bytes.Buffer // Guarded by mu.
	flushes int          // Guarded by mu.
}

func (c *gatedConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.mu.Lock()
	c.flushes++
	first := c.flushes == 1
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return v.WriteTo(&c.out)
}

// TestConnWriterCombinesQueuedFrames is the rule "whoever holds the
// write lock flushes everyone's queued frames": while one sender's
// write is blocked, two more queue; the next holder of the lock ships
// both in one write, the last finds nothing left, and every owned
// message comes back through the callback exactly once, after it left.
func TestConnWriterCombinesQueuedFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	conn := &gatedConn{Conn: client, entered: make(chan struct{}), gate: make(chan struct{})}
	var mu sync.Mutex
	var shipped []uint32
	w := NewConnWriter(conn, 0, func(m *Msg) {
		mu.Lock()
		shipped = append(shipped, m.ID)
		mu.Unlock()
	})
	msg := func(id uint32) *Msg { return &Msg{Version: Version2, ID: id, Type: TPageOutAck} }
	flush := func(wg *sync.WaitGroup) {
		defer wg.Done()
		if err := w.Flush(time.Second); err != nil {
			t.Error(err)
		}
	}

	var wg sync.WaitGroup
	if err := w.QueueOwned(msg(1)); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go flush(&wg)
	<-conn.entered // sender 1 holds the write lock, blocked in its write
	for id := uint32(2); id <= 3; id++ {
		if err := w.QueueOwned(msg(id)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go flush(&wg)
	}
	mu.Lock()
	early := len(shipped)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d messages handed back before their flush finished", early)
	}
	close(conn.gate)
	wg.Wait()

	if conn.flushes != 2 {
		t.Fatalf("3 senders made %d writes, want 2 (the second carrying two frames)", conn.flushes)
	}
	fr := NewFrameReader(&conn.out)
	for want := uint32(1); want <= 3; want++ {
		m, err := fr.Next()
		if err != nil || m.ID != want {
			t.Fatalf("frame %d: got %+v, %v", want, m, err)
		}
		Recycle(m)
	}
	if len(shipped) != 3 {
		t.Fatalf("shipped callback ran for %v, want each of 1, 2, 3 once", shipped)
	}
}

// TestConnWriterDeadlineBoundsWedgedPeer: a peer that never reads
// costs the flush its timeout, not forever, and owned messages still
// come back.
func TestConnWriterDeadlineBoundsWedgedPeer(t *testing.T) {
	client, server := net.Pipe() // synchronous: a write blocks until read
	defer client.Close()
	defer server.Close()
	back := 0
	w := NewConnWriter(client, time.Nanosecond, func(*Msg) { back++ })
	if err := w.QueueOwned(&Msg{Version: Version2, ID: 1, Type: TPageInAck, Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := w.Flush(50 * time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("flush to a peer that never reads: got %v, want a timeout", err)
	}
	if el := time.Since(start); el < 50*time.Millisecond || el > 2*time.Second {
		t.Fatalf("flush returned after %v, want about 50ms", el)
	}
	if back != 1 {
		t.Fatalf("owned message handed back %d times, want 1", back)
	}
}
