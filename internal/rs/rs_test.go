package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rmp/internal/page"
)

// fieldAxioms spot-checks the GF(256) tables: inverses, commutativity,
// distributivity over a full sweep of the field.
func TestFieldAxioms(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := mul(byte(a), inv(byte(a))); got != 1 {
			t.Fatalf("a·a^-1 = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if mul(a, b) != mul(b, a) {
			t.Fatalf("mul not commutative at %d,%d", a, b)
		}
		if mul(a, b^c) != mul(a, b)^mul(a, c) {
			t.Fatalf("mul not distributive at %d,%d,%d", a, b, c)
		}
	}
}

func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1000) // odd length exercises the tail loop
	dst := make([]byte, 1000)
	want := make([]byte, 1000)
	rng.Read(src)
	for _, c := range []byte{0, 1, 2, 3, 0x53, 0xca, 0xff} {
		rng.Read(dst)
		copy(want, dst)
		for i := range want {
			want[i] ^= mul(c, src[i])
		}
		mulAdd(dst, src, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("mulAdd c=%#x diverges from scalar", c)
		}
		for i := range want {
			want[i] = mul(c, src[i])
		}
		mulAssign(dst, src, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("mulAssign c=%#x diverges from scalar", c)
		}
	}
}

func TestNewRejectsBadShape(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {250, 6}} {
		if _, err := New(tc[0], tc[1]); err == nil {
			t.Fatalf("New(%d,%d) accepted", tc[0], tc[1])
		}
	}
	if _, err := New(253, 2); err != nil {
		t.Fatalf("New(253,2) rejected: %v", err)
	}
}

// makeShards builds a full random shard set with computed parity.
func makeShards(t *testing.T, c *Code, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.Total())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.K() {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards[:c.K()], shards[c.K():]); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return shards
}

// TestReconstructAllErasurePatterns: for several (k,m) shapes, every
// erasure pattern of up to m shards reconstructs every shard
// byte-identically — the MDS property, exhaustively.
func TestReconstructAllErasurePatterns(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {5, 3}, {3, 4}} {
		k, m := shape[0], shape[1]
		t.Run(fmt.Sprintf("rs(%d,%d)", k, m), func(t *testing.T) {
			c, err := New(k, m)
			if err != nil {
				t.Fatal(err)
			}
			orig := makeShards(t, c, 512, int64(k*100+m))
			n := c.Total()
			// Iterate every subset of shards to erase (bitmask), keeping
			// those with at most m erased.
			for mask := 1; mask < 1<<n; mask++ {
				erased := 0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						erased++
					}
				}
				if erased > m {
					continue
				}
				shards := make([][]byte, n)
				present := make([]bool, n)
				for i := 0; i < n; i++ {
					shards[i] = make([]byte, len(orig[i]))
					if mask&(1<<i) == 0 {
						copy(shards[i], orig[i])
						present[i] = true
					}
				}
				if err := c.Reconstruct(shards, present); err != nil {
					t.Fatalf("mask %#x: %v", mask, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Fatalf("mask %#x: shard %d wrong after reconstruction", mask, i)
					}
				}
				// One wanted data row at a time, the other erased rows
				// left out (nil): same bytes, nothing else touched.
				for d := 0; d < k; d++ {
					if mask&(1<<d) == 0 {
						continue
					}
					for i := 0; i < n; i++ {
						if mask&(1<<i) != 0 {
							shards[i] = nil
						}
					}
					shards[d] = make([]byte, len(orig[d]))
					if err := c.Reconstruct(shards, present); err != nil {
						t.Fatalf("mask %#x want %d: %v", mask, d, err)
					}
					if !bytes.Equal(shards[d], orig[d]) {
						t.Fatalf("mask %#x: lone shard %d wrong after reconstruction", mask, d)
					}
				}
			}
		})
	}
}

// TestReconstructTooFewShards: erasing m+1 shards must fail with
// ErrTooFewShards, never return garbage.
func TestReconstructTooFewShards(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, c, 256, 9)
	shards := make([][]byte, c.Total())
	present := make([]bool, c.Total())
	for i := range shards {
		shards[i] = make([]byte, 256)
		if i >= 3 {
			copy(shards[i], orig[i])
			present[i] = true
		}
	}
	if err := c.Reconstruct(shards, present); err != ErrTooFewShards {
		t.Fatalf("got %v, want ErrTooFewShards", err)
	}
	// A parity row cannot be rebuilt around a data row the caller left
	// out, and a row marked present must hold bytes: errors, not panics.
	copy(shards[2], orig[2])
	present[2] = true
	shards[0], shards[1] = nil, nil
	if err := c.Reconstruct(shards, append([]bool(nil), true, false, true, true, true, false)); err == nil {
		t.Fatal("a nil shard marked present was accepted")
	}
	if err := c.Reconstruct(shards, append([]bool(nil), false, false, true, true, true, false)); err == nil {
		t.Fatal("parity rebuilt although a data shard was left out")
	}
}

// TestEncodeOneMatchesEncode: accumulating shard by shard over zeroed
// parity buffers equals one whole-group Encode — the log-structured
// update path.
func TestEncodeOneMatchesEncode(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, c, 384, 11)
	parity := make([][]byte, c.M())
	for j := range parity {
		parity[j] = make([]byte, 384)
	}
	for i := 0; i < c.K(); i++ {
		if err := c.EncodeOne(parity, i, orig[i]); err != nil {
			t.Fatal(err)
		}
	}
	for j := range parity {
		if !bytes.Equal(parity[j], orig[c.K()+j]) {
			t.Fatalf("accumulated parity %d diverges from Encode", j)
		}
	}
}

// TestM1IsXOR: RS(k,1) is the paper's single parity byte for byte —
// Encode yields the page.XORInto fold of the data shards, shard-by-shard
// EncodeOne accumulation yields the same page, and one erasure anywhere
// decodes.
func TestM1IsXOR(t *testing.T) {
	for _, k := range []int{1, 2, 4, 5, 9} {
		c, err := New(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeShards(t, c, page.Size, int64(23+k))
		fold := page.NewBuf()
		acc := [][]byte{make([]byte, page.Size)}
		for i := 0; i < k; i++ {
			page.XORInto(fold, shards[i])
			if err := c.EncodeOne(acc, i, shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(shards[k], fold) {
			t.Fatalf("rs(%d,1): Encode is not the XOR fold of the data shards", k)
		}
		if !bytes.Equal(acc[0], shards[k]) {
			t.Fatalf("rs(%d,1): EncodeOne accumulation diverges from Encode", k)
		}
		lost := k / 2
		saved := append([]byte(nil), shards[lost]...)
		present := make([]bool, c.Total())
		for i := range present {
			present[i] = i != lost
		}
		for b := range shards[lost] {
			shards[lost][b] = 0
		}
		if err := c.Reconstruct(shards, present); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards[lost], saved) {
			t.Fatalf("rs(%d,1) failed to reconstruct a single erasure", k)
		}
	}
}
