package chaos_test

import (
	"errors"
	"testing"
	"time"

	"rmp/internal/chaos"
	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/wire"
)

func backend(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{CapacityPages: 1024})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Addr().String()
}

func proxied(t *testing.T) (*server.Server, *chaos.Proxy) {
	t.Helper()
	srv, addr := backend(t)
	p, err := chaos.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return srv, p
}

func mkPage(seed uint64) page.Buf {
	b := page.NewBuf()
	b.Fill(seed)
	return b
}

func TestProxyRelaysTransparently(t *testing.T) {
	_, px := proxied(t)
	c, err := client.Dial(px.Addr(), "chaos-client", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := mkPage(7)
	if err := c.PageOut(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.PageIn(1)
	if err != nil || got.Checksum() != want.Checksum() {
		t.Fatalf("relay mangled traffic: %v", err)
	}
}

func TestProxyDelay(t *testing.T) {
	_, px := proxied(t)
	px.SetDelay(10 * time.Millisecond)
	c, err := client.Dial(px.Addr(), "chaos-client", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("round trip %v despite 2x10ms injected latency", d)
	}
}

func TestProxyCutAll(t *testing.T) {
	_, px := proxied(t)
	c, err := client.Dial(px.Addr(), "chaos-client", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}
	px.CutAll()
	if _, err := c.PageIn(1); err == nil {
		t.Fatal("request succeeded across a severed connection")
	}
}

// TestCutMidFrame severs the client->server stream in the middle of a
// PAGEOUT frame. The server must discard the partial frame (not store
// garbage) and the client must see a transport error.
func TestCutMidFrame(t *testing.T) {
	srv, px := proxied(t)
	// HELLO is ~30 bytes; a PAGEOUT frame is ~8.25 KB. Cutting at 2 KB
	// lands mid-page-data.
	px.CutAfterBytes(2048)
	c, err := client.Dial(px.Addr(), "chaos-client", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.PageOut(1, mkPage(1))
	if err == nil {
		t.Fatal("pageout succeeded across a mid-frame cut")
	}
	// Give the server a beat to process the broken stream.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && srv.Store().Len() != 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("server stored %d pages from a truncated frame", n)
	}
}

// TestMirroringSurvivesMidTransferCut: the reliability story end to
// end — one replica's connection dies mid-frame, and the pager keeps
// every page intact via the other replica, re-mirroring onto the
// healthy path.
func TestMirroringSurvivesMidTransferCut(t *testing.T) {
	// Server A sits behind the chaos proxy; server B is direct.
	_, px := proxied(t)
	_, addrB := backend(t)

	p, err := client.New(client.Config{
		ClientName: "chaos-mirror",
		Servers:    []string{px.Addr(), addrB},
		Policy:     client.PolicyMirroring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 12
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	// All future bytes through the proxy are throttled to die mid-frame.
	px.CutAfterBytes(1)
	px.CutAll()

	// Everything must still read correctly (replica B + re-mirror).
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d after mid-transfer cut: %v", i, err)
		}
		if got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("page %d corrupted by mid-transfer cut", i)
		}
	}
	// And new pageouts keep working with zero losses.
	for i := uint64(100); i < 100+n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatalf("pageout after cut: %v", err)
		}
	}
	if lost := p.Stats().LostPages; lost != 0 {
		t.Fatalf("%d pages lost despite mirroring", lost)
	}
}

// TestParityLoggingSurvivesMidTransferCut: a data column's link dies
// mid-frame under parity logging; XOR reconstruction plus the rebuild
// must keep every page intact and correct.
func TestParityLoggingSurvivesMidTransferCut(t *testing.T) {
	// Column 0 is proxied; three more data columns and the parity
	// server are direct.
	_, px := proxied(t)
	addrs := []string{px.Addr()}
	for i := 0; i < 4; i++ {
		_, a := backend(t)
		addrs = append(addrs, a)
	}
	p, err := client.New(client.Config{
		ClientName: "chaos-plog",
		Servers:    addrs,
		Policy:     client.PolicyParityLogging,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 20
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	px.CutAfterBytes(1) // future connections die instantly
	px.CutAll()         // and current ones now

	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d after column cut: %v", i, err)
		}
		if got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("page %d corrupted after XOR reconstruction", i)
		}
	}
	if lost := p.Stats().LostPages; lost != 0 {
		t.Fatalf("%d pages lost despite parity logging", lost)
	}
	// Continue paging on the surviving columns.
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i+500)); err != nil {
			t.Fatalf("pageout after rebuild: %v", err)
		}
	}
}

// TestBasicParityFlakyLink: the basic parity policy's home server
// link flaps with injected latency and then dies mid-frame; the
// write-hole repair path must leave groups consistent.
func TestBasicParityFlakyLink(t *testing.T) {
	_, px := proxied(t)
	addrs := []string{px.Addr()}
	for i := 0; i < 3; i++ {
		_, a := backend(t)
		addrs = append(addrs, a)
	}
	p, err := client.New(client.Config{
		ClientName: "chaos-parity",
		Servers:    addrs,
		Policy:     client.PolicyParity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 15
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	px.SetDelay(2 * time.Millisecond) // the link degrades...
	for i := uint64(0); i < n; i += 2 {
		if err := p.PageOut(page.ID(i), mkPage(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	px.CutAfterBytes(1) // ...then dies mid-frame
	px.CutAll()

	for i := uint64(0); i < n; i++ {
		want := mkPage(i)
		if i%2 == 0 {
			want = mkPage(i + 100)
		}
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d: %v", i, err)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("page %d corrupted across flaky-link crash", i)
		}
	}
}

// TestProxyStall: a stalled proxy keeps TCP open but forwards nothing
// — the black-holed-daemon failure mode. The request must end in a
// bounded timeout (not hang), and lifting the stall must let a fresh
// connection work again.
func TestProxyStall(t *testing.T) {
	_, px := proxied(t)
	dl := client.Deadlines{Floor: 30 * time.Millisecond, Ceil: 150 * time.Millisecond}
	c, err := client.DialWithOptions(px.Addr(), "chaos-client", "", client.DialOptions{Timeout: time.Second, Deadlines: dl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}

	px.Stall(0) // black-hole everything from here on
	start := time.Now()
	_, err = c.PageIn(1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("pagein succeeded through a black-holed proxy")
	}
	if !errors.Is(err, client.ErrReqTimeout) {
		t.Fatalf("expected ErrReqTimeout through a stall, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("timeout took %v; deadline ceiling is 150ms", elapsed)
	}

	px.Unstall()
	c2, err := client.DialWithOptions(px.Addr(), "chaos-client", "", client.DialOptions{Timeout: time.Second, Deadlines: dl})
	if err != nil {
		t.Fatalf("reconnect after Unstall: %v", err)
	}
	defer c2.Close()
	got, err := c2.PageIn(1)
	if err != nil || got.Checksum() != mkPage(1).Checksum() {
		t.Fatalf("pagein after Unstall: %v", err)
	}
}

// TestProxyStallPartial: the stall allowance forwards a prefix — the
// tiny PAGEIN request and the first half of the 8.3 KB response — and
// black-holes the rest: a stall mid-frame rather than a clean cut.
func TestProxyStallPartial(t *testing.T) {
	_, px := proxied(t)
	dl := client.Deadlines{Floor: 30 * time.Millisecond, Ceil: 150 * time.Millisecond}
	c, err := client.DialWithOptions(px.Addr(), "chaos-client", "", client.DialOptions{Timeout: time.Second, Deadlines: dl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}

	px.Stall(4096) // request passes; the response truncates mid-frame
	start := time.Now()
	_, err = c.PageIn(1)
	if !errors.Is(err, client.ErrReqTimeout) {
		t.Fatalf("expected ErrReqTimeout with the response black-holed, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v; deadline ceiling is 150ms", elapsed)
	}
}

// TestProxyCorruptResponses: corrupted server->client payloads must
// surface as BAD_CHECKSUM verdicts (framing intact), not as garbage
// data silently handed to the application.
func TestProxyCorruptResponses(t *testing.T) {
	_, px := proxied(t)
	c, err := client.Dial(px.Addr(), "chaos-client", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}

	px.CorruptResponses(1)
	_, err = c.PageIn(1)
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusBadChecksum {
		t.Fatalf("expected BAD_CHECKSUM from corrupted response, got %v", err)
	}

	// The connection survived the corrupt frame: lifting the fault,
	// the very same conn serves the page intact.
	px.CorruptResponses(0)
	got, err := c.PageIn(1)
	if err != nil || got.Checksum() != mkPage(1).Checksum() {
		t.Fatalf("pagein after lifting corruption: %v", err)
	}
}

// TestRefuseNew: a backend that accepts TCP but refuses the protocol
// must not wedge the pager at construction.
func TestRefuseNew(t *testing.T) {
	_, px := proxied(t)
	px.RefuseNew(true)
	_, addrB := backend(t)
	p, err := client.New(client.Config{
		ClientName: "chaos-refuse",
		Servers:    []string{px.Addr(), addrB},
		Policy:     client.PolicyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.PageOut(1, mkPage(1)); err != nil {
		t.Fatalf("pageout with one refusing server: %v", err)
	}
	if _, err := p.PageIn(1); err != nil {
		t.Fatal(err)
	}
}
