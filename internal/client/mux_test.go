package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmp/internal/client"
	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/wire"
)

// End-to-end tests for the multiplexed client session: the handshake
// and its refusal, concurrent round trips on one Conn, and the
// acceptance scenario — a deliberately stalled response times out
// without poisoning the connection, and its late ack is discarded by
// request id when it finally arrives.

// stallServer is a scriptable server: it performs the HELLO handshake,
// answers PAGEOUT/PAGEIN from an in-memory map, and withholds the
// response to any PAGEIN whose key is in stall (or PAGEOUT whose key
// is in stallOut) until release is closed. Responses are written from
// per-request goroutines, so non-stalled requests keep completing —
// exactly the behaviour a pipelined session must exploit. The
// misbehaviour knobs (stallOut, mistype, noEcho, refuseOut) are set by
// the test before it dials.
type stallServer struct {
	ln      net.Listener
	stall   map[uint64]bool
	release chan struct{}
	// stallOut holds keys whose PAGEOUT ack is withheld like a stalled
	// PAGEIN's.
	stallOut map[uint64]bool
	// mistype holds keys whose PAGEOUT is answered with a PAGEIN_ACK.
	mistype map[uint64]bool
	// noEcho makes the HELLO_ACK omit FlagV2, as a server from before
	// tagged framing would.
	noEcho bool
	// refuseOut answers every PAGEOUT with NO_SPACE although every ALLOC
	// is granted in full: a server that promises space and then refuses
	// the page, without ever dropping the connection.
	refuseOut bool

	mu    sync.Mutex
	pages map[uint64][]byte // Guarded by mu.
	wg    sync.WaitGroup
}

func newStallServer(t *testing.T, ln net.Listener, stallKeys ...uint64) *stallServer {
	t.Helper()
	s := &stallServer{
		ln:       ln,
		stall:    make(map[uint64]bool),
		release:  make(chan struct{}),
		stallOut: make(map[uint64]bool),
		mistype:  make(map[uint64]bool),
		pages:    make(map[uint64][]byte),
	}
	for _, k := range stallKeys {
		s.stall[k] = true
	}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() {
		s.ln.Close()
		select {
		case <-s.release:
		default:
			close(s.release)
		}
		s.wg.Wait()
	})
	return s
}

func (s *stallServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *stallServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	hello, err := wire.DecodePooled(conn)
	if err != nil || hello.Type != wire.THello {
		return
	}
	ack := &wire.Msg{Type: wire.THelloAck, Status: wire.StatusOK, N: 1 << 20}
	if !s.noEcho {
		ack.Flags |= hello.Flags & wire.FlagV2
	}
	wire.Recycle(hello)
	if err := wire.Encode(conn, ack); err != nil {
		return
	}
	// Replies race on the shared conn; wmu keeps frames whole.
	var wmu sync.Mutex
	for {
		m, err := wire.DecodePooled(conn)
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(m *wire.Msg) {
			defer s.wg.Done()
			// Reads stall on stall, writes on stallOut, so tests can
			// seed a stalled read's key with a normal PAGEOUT first.
			if (m.Type == wire.TPageIn && s.stall[m.Key]) || (m.Type == wire.TPageOut && s.stallOut[m.Key]) {
				select {
				case <-s.release:
				case <-time.After(30 * time.Second):
				}
			}
			resp := s.respond(m)
			resp.Version = m.Version
			resp.ID = m.ID
			wire.Recycle(m)
			wmu.Lock()
			wire.Encode(conn, resp)
			wmu.Unlock()
		}(m)
	}
}

func (s *stallServer) respond(m *wire.Msg) *wire.Msg {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m.Type {
	case wire.TAlloc:
		return &wire.Msg{Type: wire.TAllocAck, Status: wire.StatusOK, N: m.N}
	case wire.TPageOut:
		if s.refuseOut {
			return &wire.Msg{Type: wire.TPageOutAck, Key: m.Key, Status: wire.StatusNoSpace}
		}
		s.pages[m.Key] = append([]byte(nil), m.Data...)
		if s.mistype[m.Key] {
			return &wire.Msg{Type: wire.TPageInAck, Key: m.Key, Status: wire.StatusOK}
		}
		return &wire.Msg{Type: wire.TPageOutAck, Key: m.Key, Status: wire.StatusOK}
	case wire.TPageIn:
		data, ok := s.pages[m.Key]
		if !ok {
			return &wire.Msg{Type: wire.TPageInAck, Key: m.Key, Status: wire.StatusNotFound}
		}
		return (&wire.Msg{Type: wire.TPageInAck, Key: m.Key, Status: wire.StatusOK, Data: data}).WithChecksum()
	default:
		return &wire.Msg{Type: m.Type.Ack(), Key: m.Key, Status: wire.StatusOK}
	}
}

// dialStallServer connects a client with tight, fixed request
// deadlines so a stalled request costs the test milliseconds.
func dialStallServer(t *testing.T, nw *memnet.Network, addr string) *client.Conn {
	t.Helper()
	c, err := client.DialWithOptions(addr, "mux-test", "", client.DialOptions{
		Dial:      nw.DialTimeout,
		Deadlines: client.Deadlines{Floor: 200 * time.Millisecond, Ceil: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMuxStalledRequestDoesNotPoisonConn is the issue's acceptance
// scenario: one request's response is withheld; that request times out
// with ErrReqTimeout while concurrent requests on the SAME Conn keep
// completing, the connection stays usable afterwards, and the late ack
// is discarded by id once the server finally sends it.
func TestMuxStalledRequestDoesNotPoisonConn(t *testing.T) {
	nw := memnet.New()
	const stallKey = 999
	srv := newStallServer(t, nw.MustListen("stall:7077"), stallKey)
	c := dialStallServer(t, nw, "stall:7077")

	for i := uint64(0); i < 8; i++ {
		if err := c.PageOut(i, mkPage(i)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}
	if err := c.PageOut(stallKey, mkPage(stallKey)); err != nil {
		t.Fatalf("pageout stall key: %v", err)
	}

	// Fire the stalled read and a burst of healthy reads concurrently.
	stallErr := make(chan error, 1)
	go func() {
		_, err := c.PageIn(stallKey)
		stallErr <- err
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := uint64(0); i < 8; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			got, err := c.PageIn(i)
			if err != nil {
				errs <- fmt.Errorf("pagein %d: %w", i, err)
				return
			}
			if got.Checksum() != mkPage(i).Checksum() {
				errs <- fmt.Errorf("pagein %d: wrong contents", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := <-stallErr; !errors.Is(err, client.ErrReqTimeout) {
		t.Fatalf("stalled pagein: got %v, want ErrReqTimeout", err)
	}
	if c.Broken() {
		t.Fatal("connection marked broken by a deadline miss")
	}

	// The same Conn keeps working after the miss — no redial happened.
	for i := uint64(0); i < 8; i++ {
		if _, err := c.PageIn(i); err != nil {
			t.Fatalf("pagein %d after stall: %v", i, err)
		}
	}

	// Release the withheld ack: it must be dropped by id, not crash the
	// demux or get delivered to some unrelated request.
	close(srv.release)
	waitUntil(t, 5*time.Second, "late ack to be discarded", func() bool {
		return c.LateAcksDropped() >= 1
	})
	if _, err := c.PageIn(3); err != nil {
		t.Fatalf("pagein after late ack: %v", err)
	}
}

// TestDialRejectsServerWithoutV2Echo: a server that accepts the HELLO
// but does not echo FlagV2 predates tagged framing. The dial fails at
// once — no silent fallback, no hang — and leaves nothing running.
func TestDialRejectsServerWithoutV2Echo(t *testing.T) {
	nw := memnet.New()
	srv := newStallServer(t, nw.MustListen("old:7077"))
	srv.noEcho = true
	before := runtime.NumGoroutine()
	start := time.Now()
	c, err := client.DialWithOptions("old:7077", "mux-test", "", client.DialOptions{Dial: nw.DialTimeout})
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a server that did not echo FlagV2")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v, want prompt (err: %v)", d, err)
	}
	if errors.Is(err, client.ErrReqTimeout) {
		t.Fatalf("refusal surfaced as a timeout: %v", err)
	}
	waitUntil(t, 5*time.Second, "the failed dial's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// framesOutstanding is the number of frame-class pool buffers handed
// out and not yet returned, process-wide.
func framesOutstanding() int64 {
	_, f := page.Stats()
	return int64(f.Gets) - int64(f.Puts) - int64(f.Discards)
}

// TestBatchRecyclesAbandonedAcks: a batch that gives up — on a missed
// deadline or on a mistyped ack — must hand every ack frame it was
// already given back to the pool, whether the ack sat delivered in its
// channel when the batch bailed out or arrived afterwards.
func TestBatchRecyclesAbandonedAcks(t *testing.T) {
	const n = 64
	keys := make([]uint64, n)
	pages := make([]page.Buf, n)
	for i := range keys {
		keys[i] = uint64(i)
		pages[i] = mkPage(uint64(i))
	}
	for name, tc := range map[string]struct {
		arm   func(*stallServer)
		check func(*testing.T, *client.Conn, *stallServer, error)
	}{
		// The first request's ack is withheld: the other 63 acks are
		// delivered and sit in their channels when the deadline fires.
		"stalled": {
			arm: func(s *stallServer) { s.stallOut[keys[0]] = true },
			check: func(t *testing.T, c *client.Conn, s *stallServer, err error) {
				if !errors.Is(err, client.ErrReqTimeout) {
					t.Fatalf("stalled batch: got %v, want ErrReqTimeout", err)
				}
				close(s.release)
				waitUntil(t, 5*time.Second, "late batch ack to be discarded", func() bool {
					return c.LateAcksDropped() >= 1
				})
			},
		},
		"mistyped": {
			arm: func(s *stallServer) { s.mistype[keys[0]] = true },
			check: func(t *testing.T, c *client.Conn, s *stallServer, err error) {
				if err == nil || errors.Is(err, client.ErrReqTimeout) {
					t.Fatalf("batch with a PAGEIN_ACK in it: got %v, want a type-mismatch error", err)
				}
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			base := framesOutstanding()
			nw := memnet.New()
			srv := newStallServer(t, nw.MustListen("batch:7077"))
			tc.arm(srv)
			c := dialStallServer(t, nw, "batch:7077")
			tc.check(t, c, srv, c.PageOutBatch(keys, pages))
			if c.Broken() {
				t.Fatal("abandoned batch broke the connection")
			}
			if err := c.PageOut(n, mkPage(n)); err != nil {
				t.Fatalf("pageout after the abandoned batch: %v", err)
			}
			c.Close()
			waitUntil(t, 5*time.Second, "every ack frame to return to the pool", func() bool {
				return framesOutstanding() <= base
			})
		})
	}
}

// TestMuxAgainstRealServer: a Conn to the real server survives
// concurrent traffic from many goroutines sharing it.
func TestMuxAgainstRealServer(t *testing.T) {
	c := newCluster(t, 1, 1024)
	conn, err := client.DialWithOptions(c.addrs[0], "mux-real", "", client.DialOptions{
		Dial: c.net.DialTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := uint64(g*100 + i)
				if err := conn.PageOut(key, mkPage(key)); err != nil {
					errs <- fmt.Errorf("pageout %d: %w", key, err)
					return
				}
				got, err := conn.PageIn(key)
				if err != nil {
					errs <- fmt.Errorf("pagein %d: %w", key, err)
					return
				}
				if got.Checksum() != mkPage(key).Checksum() {
					errs <- fmt.Errorf("page %d corrupted", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelinedPageOutBatch: the batch path registers every request
// before the first ack arrives, so a full batch round-trips through
// the real server and reads back intact.
func TestPipelinedPageOutBatch(t *testing.T) {
	c := newCluster(t, 1, 1024)
	conn, err := client.DialWithOptions(c.addrs[0], "batch-test", "", client.DialOptions{
		Dial: c.net.DialTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 64
	keys := make([]uint64, n)
	pages := make([]page.Buf, n)
	for i := range keys {
		keys[i] = uint64(i)
		pages[i] = mkPage(uint64(i))
	}
	if err := conn.PageOutBatch(keys, pages); err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		got, err := conn.PageIn(i)
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d: %v", i, err)
		}
	}
}

// TestPipelinedBeatsSerial: the bar the multiplexed protocol was built
// to clear. Against a live loopback server whose page service costs a
// fixed 500 µs — standing in for the store latency of a loaded rmemd,
// and dominating the loopback round trip so the ratio is robust on any
// machine — pageouts issued one at a time pay that delay once each,
// while a batch keeps them all in flight on the one session and the
// server overlaps their service. The batch path must deliver at least
// 2x the serial throughput.
func TestPipelinedBeatsSerial(t *testing.T) {
	srv := server.New(server.Config{CapacityPages: 8192, ServiceDelay: 500 * time.Microsecond})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := client.Dial(srv.Addr().String(), "pipeline-test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const nPages, batch = 256, 64
	data := mkPage(7)
	start := time.Now()
	for i := uint64(0); i < nPages; i++ {
		if err := conn.PageOut(i, data); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(start)

	keys := make([]uint64, batch)
	pages := make([]page.Buf, batch)
	for i := range pages {
		pages[i] = data
	}
	start = time.Now()
	for off := uint64(0); off < nPages; off += batch {
		for i := range keys {
			keys[i] = 10_000 + off + uint64(i)
		}
		if err := conn.PageOutBatch(keys, pages); err != nil {
			t.Fatal(err)
		}
	}
	pipelined := time.Since(start)

	speedup := serial.Seconds() / pipelined.Seconds()
	t.Logf("%d pages: serial %v, batch-%d %v, %.1fx", nPages, serial, batch, pipelined, speedup)
	if speedup < 2 {
		t.Fatalf("pipelined/serial speedup = %.2fx, want >= 2x", speedup)
	}
}

// TestMuxRequestsFailFastOnDeadConn: when the transport dies with
// requests in flight, every waiter is released with the transport
// error instead of hanging until its deadline.
func TestMuxRequestsFailFastOnDeadConn(t *testing.T) {
	nw := memnet.New()
	const stallKey = 7
	newStallServer(t, nw.MustListen("die:7077"), stallKey)
	c, err := client.DialWithOptions("die:7077", "die-test", "", client.DialOptions{
		Dial:      nw.DialTimeout,
		Deadlines: client.Deadlines{Floor: 10 * time.Second, Ceil: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.PageIn(stallKey)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request get registered
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pagein on closed conn succeeded")
		}
		if errors.Is(err, client.ErrReqTimeout) {
			t.Fatalf("waiter hit its 10s deadline instead of failing fast: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request not released by Close")
	}
}

// deafPeer accepts one TCP connection, completes the handshake and
// never reads again: the wedged process whose socket stays open. The
// returned dial hook shrinks the client's send buffer the way the peer
// shrinks its receive buffer, and hands the test the raw connection.
func deafPeer(t *testing.T) (addr string, dial client.DialFunc, raw func() net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { conn.Close() })
		conn.(*net.TCPConn).SetReadBuffer(4096)
		hello, err := wire.DecodePooled(conn)
		if err != nil {
			return
		}
		wire.Recycle(hello)
		wire.Encode(conn, &wire.Msg{Type: wire.THelloAck, Flags: wire.FlagV2, N: 1 << 20})
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	var nc net.Conn
	dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			c.(*net.TCPConn).SetWriteBuffer(4096)
			nc = c
		}
		return c, err
	}
	return ln.Addr().String(), dial, func() net.Conn { return nc }
}

// TestWedgedPeerBoundedByWriteDeadline: callers write their own frames,
// so a peer that stops reading must cost the caller whose write fills
// the socket a bounded timeout — the armed write deadline, there being
// no writer goroutine to absorb the block — and the connection, left
// with half a frame on it, must report Broken. Over real loopback TCP:
// socket buffers are what this is about.
func TestWedgedPeerBoundedByWriteDeadline(t *testing.T) {
	deadlines := client.Deadlines{Floor: 100 * time.Millisecond, Ceil: 100 * time.Millisecond, PerByte: time.Nanosecond}
	data := mkPage(3)
	for name, wedge := range map[string]func(*testing.T, *client.Conn, net.Conn) error{
		// 32 MB in one batch: the write itself outgrows the buffers.
		"batch": func(t *testing.T, c *client.Conn, _ net.Conn) error {
			keys := make([]uint64, 4096)
			pages := make([]page.Buf, len(keys))
			for i := range keys {
				keys[i], pages[i] = uint64(i), data
			}
			return c.PageOutBatch(keys, pages)
		},
		// The buffers are already full when one pageout arrives.
		"single": func(t *testing.T, c *client.Conn, raw net.Conn) error {
			junk := make([]byte, 1<<20)
			raw.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			for {
				if _, err := raw.Write(junk); err != nil {
					break
				}
			}
			return c.PageOut(1, data)
		},
	} {
		t.Run(name, func(t *testing.T) {
			addr, dial, raw := deafPeer(t)
			c, err := client.DialWithOptions(addr, "wedge-test", "", client.DialOptions{Dial: dial, Deadlines: deadlines})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// The deadline the conn quotes for the largest of these
			// requests, before the wedge skews anything.
			bound := c.RequestDeadline(4096 * page.Size)
			start := time.Now()
			err = wedge(t, c, raw())
			if !errors.Is(err, client.ErrReqTimeout) {
				t.Fatalf("got %v, want ErrReqTimeout", err)
			}
			if el := time.Since(start); el > bound+time.Second {
				t.Fatalf("took %v against a request deadline of %v", el, bound)
			}
			if !c.Broken() {
				t.Fatal("connection with a half-written frame on it does not report Broken")
			}
			if err := c.PageOut(2, data); err == nil || errors.Is(err, client.ErrReqTimeout) {
				t.Fatalf("pageout on the broken connection: got %v, want a prompt connection error", err)
			}
		})
	}
}

// holdConn delays the return of an armed Write until the connection
// has been closed, so the caller reaches its wait only after the read
// loop has both delivered the ack and failed the mux.
type holdConn struct {
	net.Conn
	armed  atomic.Bool
	once   sync.Once
	closed chan struct{}
}

func (h *holdConn) Write(b []byte) (int, error) {
	n, err := h.Conn.Write(b)
	if h.armed.Load() {
		select {
		case <-h.closed:
		case <-time.After(5 * time.Second):
		}
	}
	return n, err
}

func (h *holdConn) Close() error {
	h.once.Do(func() { close(h.closed) })
	return h.Conn.Close()
}

// TestAckThenHangUpIsDelivered: a peer that answers and closes in one
// write — BYE's shape — must have its answer taken, not reported as the
// closed connection. The read loop delivers the ack before it fails the
// mux, so when the caller waits both are ready and select may pick
// either; holdConn makes that the case on every run.
func TestAckThenHangUpIsDelivered(t *testing.T) {
	cli, srv := net.Pipe()
	hc := &holdConn{Conn: cli, closed: make(chan struct{})}
	go func() {
		defer srv.Close()
		hello, err := wire.DecodePooled(srv)
		if err != nil {
			return
		}
		wire.Recycle(hello)
		if wire.Encode(srv, &wire.Msg{Type: wire.THelloAck, Flags: wire.FlagV2, N: 1 << 20}) != nil {
			return
		}
		req, err := wire.DecodePooled(srv)
		if err != nil {
			return
		}
		var b bytes.Buffer
		wire.Encode(&b, &wire.Msg{Type: req.Type.Ack(), Version: req.Version, ID: req.ID, Key: req.Key, Status: wire.StatusOK})
		wire.Recycle(req)
		srv.Write(b.Bytes())
	}()
	dial := func(string, time.Duration) (net.Conn, error) { return hc, nil }
	c, err := client.DialWithOptions("pipe", "hangup-test", "", client.DialOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hc.armed.Store(true)
	if err := c.Free(1); err != nil {
		t.Fatalf("acked request reported as failed: %v", err)
	}
}
