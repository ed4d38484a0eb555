package server_test

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/wire"
)

// startServer launches a server on an ephemeral port and returns it
// with its address. The server is closed when the test ends.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.CapacityPages == 0 {
		cfg.CapacityPages = 256
	}
	s := server.New(cfg)
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Addr().String()
}

func dial(t *testing.T, addr, name, token string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, name, token)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawHello opens a raw socket to addr and performs the handshake as
// name, for tests that speak frames by hand. Every later frame on the
// returned conn must be tagged.
func rawHello(t *testing.T, addr, name string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	ack, err := wire.Hello(nc, name, "")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != wire.Version {
		t.Fatalf("handshake answered %+v, want an untagged HELLO_ACK", ack)
	}
	return nc
}

func fillPage(seed uint64) page.Buf {
	p := page.NewBuf()
	p.Fill(seed)
	return p
}

func TestPageOutPageInRoundTrip(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	want := fillPage(42)
	if err := c.PageOut(7, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.PageIn(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatal("page mangled in transit")
	}
}

func TestPageInMissing(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	_, err := c.PageIn(999)
	if err == nil || !strings.Contains(err.Error(), "NOT_FOUND") {
		t.Fatalf("got %v, want NOT_FOUND", err)
	}
}

func TestAllocGrantAndExhaustion(t *testing.T) {
	_, addr := startServer(t, server.Config{CapacityPages: 10})
	c := dial(t, addr, "client-a", "")
	n, err := c.Alloc(6)
	if err != nil || n != 6 {
		t.Fatalf("Alloc(6) = %d, %v", n, err)
	}
	n, err = c.Alloc(6)
	if err != nil || n != 4 {
		t.Fatalf("Alloc(6) second = %d, %v; want partial grant 4", n, err)
	}
	n, err = c.Alloc(1)
	if err != nil || n != 0 {
		t.Fatalf("Alloc on full server = %d, %v; want 0, nil", n, err)
	}
}

func TestAuthTokenRequired(t *testing.T) {
	_, addr := startServer(t, server.Config{AuthToken: "sekrit"})
	if _, err := client.Dial(addr, "x", "wrong"); err == nil {
		t.Fatal("dial with wrong token succeeded")
	}
	c := dial(t, addr, "x", "sekrit")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatalf("authorized pageout failed: %v", err)
	}
}

func TestFreeReleasesPages(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	for i := uint64(0); i < 5; i++ {
		if err := c.PageOut(i, fillPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Free(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Len() != 2 {
		t.Fatalf("server holds %d pages, want 2", srv.Store().Len())
	}
	if _, err := c.PageIn(0); err == nil {
		t.Fatal("freed page still readable")
	}
	if _, err := c.PageIn(4); err != nil {
		t.Fatalf("surviving page unreadable: %v", err)
	}
}

func TestLoadReportsFreePages(t *testing.T) {
	_, addr := startServer(t, server.Config{CapacityPages: 100})
	c := dial(t, addr, "client-a", "")
	free, err := c.Load()
	if err != nil || free != 100 {
		t.Fatalf("Load = %d, %v; want 100", free, err)
	}
	if _, err := c.Alloc(30); err != nil {
		t.Fatal(err)
	}
	free, err = c.Load()
	if err != nil || free != 70 {
		t.Fatalf("Load after alloc = %d, %v; want 70", free, err)
	}
}

func TestNamespaceIsolationBetweenClients(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	a := dial(t, addr, "client-a", "")
	b := dial(t, addr, "client-b", "")
	pa, pb := fillPage(1), fillPage(2)
	if err := a.PageOut(7, pa); err != nil {
		t.Fatal(err)
	}
	if err := b.PageOut(7, pb); err != nil {
		t.Fatal(err)
	}
	got, err := a.PageIn(7)
	if err != nil || got.Checksum() != pa.Checksum() {
		t.Fatalf("client-a sees wrong page: %v", err)
	}
	got, err = b.PageIn(7)
	if err != nil || got.Checksum() != pb.Checksum() {
		t.Fatalf("client-b sees wrong page: %v", err)
	}
}

func TestSameClientSharesNamespaceAcrossConns(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c1 := dial(t, addr, "client-a", "")
	c2 := dial(t, addr, "client-a", "")
	want := fillPage(9)
	if err := c1.PageOut(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := c2.PageIn(3)
	if err != nil || got.Checksum() != want.Checksum() {
		t.Fatalf("second connection can't read page: %v", err)
	}
}

func TestPagesSurviveDisconnectWithoutBye(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c, err := client.Dial(addr, "client-a", "")
	if err != nil {
		t.Fatal(err)
	}
	want := fillPage(5)
	if err := c.PageOut(1, want); err != nil {
		t.Fatal(err)
	}
	c.Close() // abrupt disconnect, no BYE
	waitFor(t, func() bool { return srv.Store().Len() == 1 })
	c2 := dial(t, addr, "client-a", "")
	got, err := c2.PageIn(1)
	if err != nil || got.Checksum() != want.Checksum() {
		t.Fatalf("page lost across reconnect: %v", err)
	}
}

func TestByePurgesClientState(t *testing.T) {
	srv, addr := startServer(t, server.Config{CapacityPages: 50})
	c, err := client.Dial(addr, "client-a", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(20); err != nil {
		t.Fatal(err)
	}
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Store().Len() == 0 && srv.Store().Free() == 50 })
}

func TestDropClient(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	srv.DropClient("client-a")
	if srv.Store().Len() != 0 {
		t.Fatal("DropClient left pages behind")
	}
}

func TestPressureAdvisory(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	if c.PressureAdvised() {
		t.Fatal("pressure advised while server idle")
	}
	srv.SetPressure(true)
	if n, err := c.Alloc(5); err != nil || n != 0 {
		t.Fatalf("Alloc under pressure = %d, %v; want 0 grant", n, err)
	}
	if !c.PressureAdvised() {
		t.Fatal("pressure advisory not latched")
	}
	if c.PressureAdvised() {
		t.Fatal("advisory not cleared after read")
	}
	// Existing pages must still be readable under pressure.
	if _, err := c.PageIn(1); err != nil {
		t.Fatalf("pagein under pressure: %v", err)
	}
	srv.SetPressure(false)
	if n, _ := c.Alloc(5); n != 5 {
		t.Fatal("alloc still denied after pressure cleared")
	}
	c.PressureAdvised() // clear latch from the pagein above
}

func TestPressureDelaySlowsService(t *testing.T) {
	srv, addr := startServer(t, server.Config{PressureDelay: 30 * time.Millisecond})
	c := dial(t, addr, "client-a", "")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	srv.SetPressure(true)
	start := time.Now()
	if _, err := c.PageIn(1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("pagein under pressure took %v, want >= 30ms", d)
	}
}

func TestXorWriteForwardsToParityServer(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	_, paddr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	pc := dial(t, paddr, "client-a", "")

	old := fillPage(1)
	newer := fillPage(2)
	if err := c.XorWrite(7, old, paddr, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.XorWrite(7, newer, paddr, 100); err != nil {
		t.Fatal(err)
	}
	// Parity accumulated old (first delta) then old^new: net = new.
	parity, err := pc.PageIn(100)
	if err != nil {
		t.Fatal(err)
	}
	if parity.Checksum() != newer.Checksum() {
		t.Fatal("parity page is not old ^ (old^new) = new")
	}
	// Data server holds the newest version.
	got, err := c.PageIn(7)
	if err != nil || got.Checksum() != newer.Checksum() {
		t.Fatalf("data server lost latest version: %v", err)
	}
}

func TestXorWriteWithoutParityHostFails(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	if err := c.XorWrite(7, fillPage(1), "", 0); err == nil {
		t.Fatal("XorWrite with empty parity host succeeded")
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc := rawHello(t, addr, "x")
	// PAGEOUT with a bad checksum must be refused, not stored.
	m := &wire.Msg{Version: wire.Version2, ID: 41, Type: wire.TPageOut, Key: 1, Data: fillPage(1), Checksum: 0xBAD}
	if err := wire.Encode(nc, m); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodePooled(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusBadChecksum {
		t.Fatalf("status = %v, want BAD_CHECKSUM", ack.Status)
	}
	if ack.Version != wire.Version2 || ack.ID != 41 {
		t.Fatalf("ack framed v%d id %d, want a tagged ack echoing id 41", ack.Version, ack.ID)
	}
}

func TestFirstFrameMustBeHello(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.Encode(nc, &wire.Msg{Type: wire.TPageIn, Key: 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodePooled(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusDenied {
		t.Fatalf("status = %v, want DENIED", ack.Status)
	}
}

// TestHelloWithoutV2Denied: a peer that does not announce tagged
// framing gets an untagged HELLO_ACK{DENIED} and a closed connection,
// never a namespace — and the next well-formed client is served.
func TestHelloWithoutV2Denied(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	probe := dial(t, addr, "probe", "")
	before, err := probe.Stat()
	if err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.Encode(nc, &wire.Msg{Type: wire.THello, Host: "legacy"}); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodePooled(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.THelloAck || ack.Status != wire.StatusDenied || ack.Version != wire.Version {
		t.Fatalf("legacy HELLO answered %+v, want an untagged HELLO_ACK{DENIED}", ack)
	}
	if _, err := wire.DecodePooled(nc); err == nil {
		t.Fatal("server kept the connection open after denying the HELLO")
	}

	after, err := probe.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if after.Clients != before.Clients {
		t.Fatalf("denied HELLO changed Clients from %d to %d", before.Clients, after.Clients)
	}
	c := dial(t, addr, "modern", "")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatalf("client after a denied HELLO: %v", err)
	}
}

// fakeParityPeer accepts forwarding links, completes the handshake,
// and answers every XORDELTA with whatever answer builds from it.
func fakeParityPeer(t *testing.T, answer func(req *wire.Msg) *wire.Msg) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			func() {
				defer nc.Close()
				hello, err := wire.DecodePooled(nc)
				if err != nil {
					return
				}
				wire.Encode(nc, &wire.Msg{Type: wire.THelloAck, Flags: hello.Flags & wire.FlagV2})
				for {
					req, err := wire.DecodePooled(nc)
					if err != nil {
						return
					}
					wire.Encode(nc, answer(req))
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return ln.Addr().String()
}

// TestForwardingLinkRejectsMismatchedAck: the server→server link pairs
// every XORDELTA with the ack that echoes its id. A peer that answers
// with another id, or with something that is not an XORDELTA_ACK,
// fails the XORWRITE and costs the cached link — the next XORWRITE
// dials afresh.
func TestForwardingLinkRejectsMismatchedAck(t *testing.T) {
	for name, answer := range map[string]func(*wire.Msg) *wire.Msg{
		"wrong id": func(req *wire.Msg) *wire.Msg {
			return &wire.Msg{Version: wire.Version2, ID: req.ID + 1, Type: wire.TXorDeltaAck}
		},
		"wrong type": func(req *wire.Msg) *wire.Msg {
			return &wire.Msg{Version: wire.Version2, ID: req.ID, Type: wire.TPageOutAck}
		},
		"untagged": func(req *wire.Msg) *wire.Msg {
			return &wire.Msg{Type: wire.TXorDeltaAck}
		},
	} {
		t.Run(name, func(t *testing.T) {
			var links atomic.Int32
			paddr := fakeParityPeer(t, func(req *wire.Msg) *wire.Msg {
				if req.ID == 1 {
					links.Add(1) // ids restart at 1 on every new link
				}
				return answer(req)
			})
			_, addr := startServer(t, server.Config{})
			c := dial(t, addr, "client-a", "")
			for i := 1; i <= 2; i++ {
				err := c.XorWrite(7, fillPage(uint64(i)), paddr, 100)
				if err == nil {
					t.Fatalf("XORWRITE %d succeeded over a link whose ack did not match", i)
				}
				if got := int(links.Load()); got != i {
					t.Fatalf("after XORWRITE %d the peer has seen %d links, want %d (link not invalidated)", i, got, i)
				}
			}
		})
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, "client-a", "")
	if err := c.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.PageIn(1); err == nil {
		t.Fatal("pagein succeeded after server close")
	}
}

// waitFor polls cond for up to a second; session teardown is
// asynchronous with respect to connection close.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 1s")
}
