package page

import (
	"testing"
)

func TestPoolRoundTrip(t *testing.T) {
	b := Get()
	if len(b) != Size || cap(b) != Size {
		t.Fatalf("Get: len=%d cap=%d, want %d/%d", len(b), cap(b), Size, Size)
	}
	b.Fill(7)
	Put(b)
	// A page-class buffer must come back through the pool in
	// steady state (same P, no GC pressure in between).
	c := Get()
	if len(c) != Size {
		t.Fatalf("Get after Put: len=%d", len(c))
	}
	Put(c)

	f := GetFrame()
	if len(f) != FrameClass || cap(f) != FrameClass {
		t.Fatalf("GetFrame: len=%d cap=%d, want %d", len(f), cap(f), FrameClass)
	}
	Put(f)
}

func TestGetZeroIsZero(t *testing.T) {
	// Dirty a buffer, return it, and require the zeroed variant to be
	// actually zero even when served from the pool.
	b := Get()
	b.Fill(99)
	Put(b)
	z := GetZero()
	defer Put(z)
	if !z.IsZero() {
		t.Fatal("GetZero returned a dirty buffer")
	}
}

func TestGetNRouting(t *testing.T) {
	cases := []struct {
		n       int
		wantCap int
	}{
		{0, Size},
		{1, Size},
		{Size, Size},
		{Size + 1, FrameClass},
		{FrameClass, FrameClass},
	}
	for _, c := range cases {
		b := GetN(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("GetN(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		Put(b)
	}
	// Oversized requests fall back to the allocator.
	huge := GetN(FrameClass + 1)
	if len(huge) != FrameClass+1 {
		t.Fatalf("GetN oversize: len=%d", len(huge))
	}
	Put(huge) // must not pool it; routes to discard accounting
}

func TestPutForeignCapacityDiscards(t *testing.T) {
	_, _ = Stats() // touch the counters so the path is exercised
	before, _ := Stats()
	// A sub-slice that does not start at the buffer origin has a
	// capacity matching no class and must be discarded, not pooled.
	b := Get()
	Put(b[16:])
	after, _ := Stats()
	if after.Discards != before.Discards+1 {
		t.Fatalf("foreign-capacity Put: discards %d -> %d, want +1", before.Discards, after.Discards)
	}
	Put(b) // the original is still ours to return
	Put(nil)
}

func TestClonePooled(t *testing.T) {
	b := NewBuf()
	b.Fill(3)
	c := b.ClonePooled()
	if len(c) != len(b) || &c[0] == &b[0] {
		t.Fatal("ClonePooled must copy into distinct pooled memory")
	}
	for i := range c {
		if c[i] != b[i] {
			t.Fatalf("ClonePooled differs at byte %d", i)
		}
	}
	Put(c)
}

func TestPoolStatsAccounting(t *testing.T) {
	before, _ := Stats()
	b := Get()
	Put(b)
	after, _ := Stats()
	if after.Gets != before.Gets+1 {
		t.Fatalf("Gets %d -> %d, want +1", before.Gets, after.Gets)
	}
	if after.Puts != before.Puts+1 {
		t.Fatalf("Puts %d -> %d, want +1", before.Puts, after.Puts)
	}
	if after.Hits() > after.Gets {
		t.Fatal("Hits exceeds Gets")
	}
}

func TestPoolZeroAllocSteadyState(t *testing.T) {
	// Prime the pool, then require the Get/Put cycle itself to be
	// allocation-free: the whole point of pooling the hot path.
	Put(Get())
	if avg := testing.AllocsPerRun(100, func() {
		b := Get()
		Put(b)
	}); avg != 0 {
		t.Fatalf("pooled Get/Put allocates %.1f objects/cycle, want 0", avg)
	}
}

func BenchmarkXORWords(b *testing.B) {
	dst, src := NewBuf(), NewBuf()
	dst.Fill(1)
	src.Fill(2)
	b.SetBytes(Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORWords(dst, src)
	}
}

func BenchmarkXORBytesRef(b *testing.B) {
	dst, src := NewBuf(), NewBuf()
	dst.Fill(1)
	src.Fill(2)
	b.SetBytes(Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORBytesRef(dst, src)
	}
}

// TestXORWordKernelSpeedup holds the word-wide kernel to its bar: at
// least 4x the byte-loop reference on a full page, measured by the
// two benchmarks above.
func TestXORWordKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	words := nsPerOp(testing.Benchmark(BenchmarkXORWords))
	bytesRef := nsPerOp(testing.Benchmark(BenchmarkXORBytesRef))
	if words <= 0 || bytesRef/words < 4 {
		t.Errorf("word XOR kernel is %.2fx the byte loop, want >= 4x (words %.0f ns/page, bytes %.0f ns/page)",
			bytesRef/words, words, bytesRef)
	}
}

func BenchmarkPooledGetPut(b *testing.B) {
	Put(Get())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get())
	}
}
