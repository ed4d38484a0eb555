package client_test

import (
	"testing"

	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
)

// Pipelining regression benchmarks: one pageout at a time vs the
// batch path, on the same session against a live loopback server.
// Compare with `go test -bench 'PageOut(Serial|Pipelined)' ./internal/client`;
// the machine-readable variant is `rmpbench -exp pipeline`, which
// emits BENCH_pipeline.json.

// benchConn dials one live loopback server and hands the Conn plus a
// filled page to the benchmark body.
func benchConn(b *testing.B) (*client.Conn, page.Buf) {
	b.Helper()
	s := server.New(server.Config{CapacityPages: 1 << 18})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	conn, err := client.Dial(s.Addr().String(), "bench", "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	data := page.NewBuf()
	data.Fill(1)
	return conn, data
}

func BenchmarkPageOutSerial(b *testing.B) {
	conn, data := benchConn(b)
	b.SetBytes(page.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.PageOut(uint64(i%4096), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageOutPipelined measures the batch path: 64 pageouts per
// exchange, all in flight at once on one Conn.
func BenchmarkPageOutPipelined(b *testing.B) {
	conn, data := benchConn(b)
	const batch = 64
	keys := make([]uint64, batch)
	pages := make([]page.Buf, batch)
	for i := range pages {
		pages[i] = data
	}
	b.SetBytes(page.Size * batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64((i*batch + j) % 4096)
		}
		if err := conn.PageOutBatch(keys, pages); err != nil {
			b.Fatal(err)
		}
	}
}
