package server_test

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"rmp/internal/server"
	"rmp/internal/wire"
)

// TestServerSurvivesGarbageBytes: random junk on a connection must
// not take the server down or affect other clients.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	good := dial(t, addr, "good-client", "")
	if err := good.PageOut(1, fillPage(1)); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 64+rng.Intn(512))
		rng.Read(junk)
		nc.Write(junk)
		nc.Close()
	}

	// The well-behaved client is unaffected.
	got, err := good.PageIn(1)
	if err != nil || got.Checksum() != fillPage(1).Checksum() {
		t.Fatalf("good client broken by junk traffic: %v", err)
	}
}

// TestServerRejectsOversizedFrame: a frame claiming a huge payload is
// refused before any allocation.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint16(hdr[0:], wire.Magic)
	hdr[2] = wire.Version
	hdr[3] = byte(wire.THello)
	binary.BigEndian.PutUint32(hdr[8:], 1<<30) // absurd payload length
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// Server must drop the connection rather than try to read 1 GB.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered an oversized frame")
	}
}

// TestServerHalfOpenConnection: a client that handshakes and goes
// silent must not wedge the server (other clients keep working).
func TestServerHalfOpenConnection(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	rawHello(t, addr, "zombie")
	// Now go silent. Another client must still be served.
	c := dial(t, addr, "live-client", "")
	if err := c.PageOut(5, fillPage(5)); err != nil {
		t.Fatalf("server wedged by half-open conn: %v", err)
	}
}

// TestServerWrongMagic: non-protocol TCP traffic (e.g. an HTTP probe)
// is dropped cleanly.
func TestServerWrongMagic(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	if n, err := nc.Read(buf); err == nil && n > 0 {
		t.Fatalf("server replied %q to an HTTP probe", buf[:n])
	}
}

// TestStatEndpoint: the STAT snapshot reflects store state.
func TestStatEndpoint(t *testing.T) {
	srv, addr := startServer(t, server.Config{CapacityPages: 100})
	c := dial(t, addr, "stat-client", "")
	for i := uint64(0); i < 7; i++ {
		if err := c.PageOut(i, fillPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.StoredPages != 7 {
		t.Fatalf("StoredPages = %d, want 7", info.StoredPages)
	}
	if info.FreePages != srv.Store().Free() {
		t.Fatalf("FreePages = %d, want %d", info.FreePages, srv.Store().Free())
	}
}
