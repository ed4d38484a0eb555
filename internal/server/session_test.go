package server_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/wire"
)

// Tests of how one session schedules its requests: persistent workers
// that overlap independent requests up to the session's width, the FIFO
// domain of XORWRITE/XORDELTA, and teardown with workers parked on the
// reply lock.

// sessionWidth mirrors the server's maxSessionInflight.
const sessionWidth = 64

// sendAll writes the tagged requests in one burst, as a pipelining
// client does.
func sendAll(t *testing.T, nc net.Conn, reqs ...*wire.Msg) {
	t.Helper()
	var raw []byte
	for _, m := range reqs {
		m.Version = wire.Version2
		var err error
		if raw, err = wire.AppendFrame(raw, m.WithChecksum()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// nextAck reads one ack through fr, bounded so a missing ack fails the
// test.
func nextAck(t *testing.T, nc net.Conn, fr *wire.FrameReader) *wire.Msg {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ack, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestSessionOverlapsRequests: a request that needs no page service is
// acked while the PAGEIN sent before it on the same connection is still
// being served, and a full width of pipelined PAGEINs is served side by
// side — one service delay for all of them, two for twice the width.
func TestSessionOverlapsRequests(t *testing.T) {
	const delay = 150 * time.Millisecond
	_, addr := startServer(t, server.Config{CapacityPages: 1024, ServiceDelay: delay})
	nc := rawHello(t, addr, "overlap")
	fr := wire.NewFrameReader(nc)
	defer fr.Release()
	sendAll(t, nc, &wire.Msg{ID: 9, Type: wire.TPageOut, Key: 1, Data: fillPage(1)})
	if ack := nextAck(t, nc, fr); ack.Status != wire.StatusOK {
		t.Fatalf("pageout: %v", ack.Status)
	}

	// PAGEIN pays the service delay, LOAD does not.
	start := time.Now()
	sendAll(t, nc, &wire.Msg{ID: 1, Type: wire.TPageIn, Key: 1}, &wire.Msg{ID: 2, Type: wire.TLoad})
	first := nextAck(t, nc, fr)
	if first.ID != 2 || first.Type != wire.TLoadAck {
		t.Fatalf("first ack is %v id %d, want the LOAD_ACK (id 2) that was sent second", first.Type, first.ID)
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("LOAD_ACK took %v: it waited out the PAGEIN ahead of it", el)
	}
	wire.Recycle(first)
	if second := nextAck(t, nc, fr); second.ID != 1 || second.Status != wire.StatusOK {
		t.Fatalf("second ack is %v id %d status %v, want PAGEIN_ACK id 1", second.Type, second.ID, second.Status)
	}

	for _, tc := range []struct {
		n       int
		atMost  time.Duration // a serial session needs n delays
		atLeast time.Duration
	}{
		{sessionWidth, 4 * delay, delay},
		{2 * sessionWidth, 6 * delay, 2 * delay}, // the width is a bound: two waves
	} {
		reqs := make([]*wire.Msg, tc.n)
		for i := range reqs {
			reqs[i] = &wire.Msg{ID: uint32(100 + i), Type: wire.TPageIn, Key: 1}
		}
		start := time.Now()
		sendAll(t, nc, reqs...)
		for range reqs {
			ack := nextAck(t, nc, fr)
			if ack.Status != wire.StatusOK {
				t.Fatalf("pagein id %d: %v", ack.ID, ack.Status)
			}
			wire.Recycle(ack)
		}
		if el := time.Since(start); el < tc.atLeast || el > tc.atMost {
			t.Fatalf("%d pipelined pageins at %v each took %v, want between %v and %v",
				tc.n, delay, el, tc.atLeast, tc.atMost)
		}
	}
}

// TestSessionAppliesXorInArrivalOrder: XORWRITE and XORDELTA to one key
// are a read-modify-write each, so they must apply in the order they
// arrived even though XORWRITE pays the service delay and XORDELTA does
// not — on parallel workers every delta would overtake the write ahead
// of it. The acks come back in order too.
func TestSessionAppliesXorInArrivalOrder(t *testing.T) {
	_, addr := startServer(t, server.Config{ServiceDelay: 5 * time.Millisecond})
	_, paddr := startServer(t, server.Config{})
	nc := rawHello(t, addr, "xor-order")
	fr := wire.NewFrameReader(nc)
	defer fr.Release()

	const rounds = 8
	var reqs []*wire.Msg
	want := page.NewBuf()
	for i := uint64(0); i < rounds; i++ {
		// A write replaces the page, the delta after it patches it: the
		// page ends as the last write XOR the last delta only if no
		// delta ran early and no write ran late.
		reqs = append(reqs,
			&wire.Msg{ID: uint32(2*i + 1), Type: wire.TXorWrite, Key: 7, Data: fillPage(10 + i), Host: paddr, ParityKey: 70},
			&wire.Msg{ID: uint32(2*i + 2), Type: wire.TXorDelta, Key: 7, Data: fillPage(50 + i)})
	}
	copy(want, fillPage(10+rounds-1))
	page.XORInto(want, fillPage(50+rounds-1))
	sendAll(t, nc, reqs...)
	for i := range reqs {
		ack := nextAck(t, nc, fr)
		if ack.ID != uint32(i+1) || ack.Status != wire.StatusOK {
			t.Fatalf("ack %d: id %d %v status %v, want id %d OK", i, ack.ID, ack.Type, ack.Status, i+1)
		}
		wire.Recycle(ack)
	}
	got, err := dial(t, addr, "xor-order", "").PageIn(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatal("page 7 is not (last XORWRITE) ^ (last XORDELTA): the FIFO domain reordered")
	}
}

// TestCloseJoinsWorkersParkedOnReplies: a client that pipelines PAGEINs
// and never reads an ack fills the socket, parks one worker in its
// write and the rest on the reply lock, and stalls the read loop. Close
// must still unblock and join every one of them, well inside the reply
// timeout, leaving no goroutine behind.
func TestCloseJoinsWorkersParkedOnReplies(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := server.New(server.Config{CapacityPages: 64})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(4096)
	if ack, err := wire.Hello(nc, "deaf", ""); err != nil {
		t.Fatal(err)
	} else {
		wire.Recycle(ack)
	}
	sendAll(t, nc, &wire.Msg{ID: 1, Type: wire.TPageOut, Key: 1, Data: fillPage(1)})

	// 32 MB of replies: past any socket buffer pair. The requests
	// themselves stop being read once every worker is parked, so they
	// are written from a goroutine that the closing socket releases.
	const pageins = 4096
	var raw []byte
	for i := 0; i < pageins; i++ {
		raw, _ = wire.AppendFrame(raw, &wire.Msg{Version: wire.Version2, ID: uint32(10 + i), Type: wire.TPageIn, Key: 1})
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.Write(raw)
	}()
	deadline := time.Now().Add(10 * time.Second)
	// A worker is started only when every other one is busy, so half
	// the width running means dozens blocked on their replies at once.
	for runtime.NumGoroutine() < before+sessionWidth/2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d goroutines: the session's workers never backed up", runtime.NumGoroutine()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}

	t.Logf("%d goroutines up when Close is called", runtime.NumGoroutine()-before)
	start := time.Now()
	srv.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Close took %v with workers parked on a deaf client's replies", el)
	}
	nc.Close()
	<-wrote
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left behind:\n%s", runtime.NumGoroutine()-before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
