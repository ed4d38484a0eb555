package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rmp/internal/blockdev"
	"rmp/internal/page"
)

// TestSpanBounds: over several residencies, with and without readahead,
// a span holds exactly the elements asked for, cut at the end of its
// page or of the space — including the last, partial page of a space
// that is not a whole number of pages — reads what was stored, and
// stores through it reach the element accessors. A span of no
// elements, or one starting outside the space, is an error.
func TestSpanBounds(t *testing.T) {
	const size = 5*page.Size + 3004 // 5495 whole elements, the last page 375 of them
	const elems = size / 8
	cases := []struct {
		i, n, want int64
	}{
		// first element; a whole page from its edge; a page's last element
		{0, 1, 1},
		{wordsPerPage, wordsPerPage, wordsPerPage},
		{wordsPerPage - 1, 4, 1},
		// mid-page, within and past the rest of the page
		{1500, 10, 10},
		{1500, 5000, 2*wordsPerPage - 1500},
		// the partial last page, from its edge and inside it; the space's last element
		{5 * wordsPerPage, 1000, elems - 5*wordsPerPage},
		{5*wordsPerPage + 80, 20, 20},
		{elems - 1, 5, 1},
	}
	bad := []struct{ i, n int64 }{{0, 0}, {10, -1}, {-1, 1}, {elems, 1}, {elems + wordsPerPage, 1}}
	for _, resident := range []int64{2, 3, 8} {
		for _, ra := range []int{0, 4} {
			t.Run(fmt.Sprintf("resident=%d/readahead=%d", resident, ra), func(t *testing.T) {
				s, err := NewOpts(size, resident*page.Size, blockdev.NewMemDevice(), Options{Readahead: ra})
				if err != nil {
					t.Fatal(err)
				}
				for e := int64(0); e < elems; e++ {
					if err := s.SetUint64(e, uint64(e)); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range cases {
					b, err := s.Span(c.i, c.n, true)
					if err != nil {
						t.Fatalf("Span(%d, %d): %v", c.i, c.n, err)
					}
					if got := int64(len(b)) / 8; got != c.want || len(b)%8 != 0 {
						t.Fatalf("Span(%d, %d) holds %d bytes, want %d elements", c.i, c.n, len(b), c.want)
					}
					for x := int64(0); x < c.want; x++ {
						w := b[x*8:]
						if v := binary.LittleEndian.Uint64(w); v != uint64(c.i+x) && v != ^uint64(c.i+x) {
							t.Fatalf("Span(%d, %d) element %d reads %d", c.i, c.n, x, v)
						}
						binary.LittleEndian.PutUint64(w, ^uint64(c.i+x))
					}
				}
				checkResident(t, s)
				for _, c := range cases { // through every other page and back
					for x := int64(0); x < c.want; x++ {
						if v, err := s.Uint64(c.i + x); err != nil || v != ^uint64(c.i+x) {
							t.Fatalf("element %d reads %d, %v after a store through its span", c.i+x, v, err)
						}
					}
				}
				for _, c := range bad {
					if b, err := s.Span(c.i, c.n, false); err == nil {
						t.Fatalf("Span(%d, %d) returned %d bytes, want an error", c.i, c.n, len(b))
					}
				}
			})
		}
	}
}

// TestSpanDirtiesOnlyStores: a load span leaves its frame clean, so
// evicting it writes nothing; a store span dirties it, and the bytes
// stored through the span are what its eviction writes to the device.
func TestSpanDirtiesOnlyStores(t *testing.T) {
	mem := blockdev.NewMemDevice()
	dev := blockdev.NewCountingDevice(mem)
	s, err := New(4*page.Size, 2*page.Size, dev)
	if err != nil {
		t.Fatal(err)
	}
	evict0 := func() { // pages 1 and 2 push page 0 out
		t.Helper()
		for _, pg := range []int64{1, 2} {
			if _, err := s.Uint64(pg * wordsPerPage); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Span(0, wordsPerPage, false); err != nil {
		t.Fatal(err)
	}
	if s.frames[s.table[0]-1].dirty {
		t.Fatal("a load span dirtied its frame")
	}
	evict0()
	if _, w := dev.Counts(); w != 0 {
		t.Fatalf("evicting a page only loaded through a span wrote %d blocks", w)
	}
	b, err := s.Span(0, wordsPerPage, true)
	if err != nil {
		t.Fatal(err)
	}
	if !s.frames[s.table[0]-1].dirty {
		t.Fatal("a store span left its frame clean")
	}
	for x := range b {
		b[x] = byte(x * 3)
	}
	evict0()
	if _, w := dev.Counts(); w != 1 {
		t.Fatalf("evicting a page stored through a span wrote %d blocks, want 1", w)
	}
	got := page.NewBuf()
	if err := mem.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	for x := range got {
		if got[x] != byte(x*3) {
			t.Fatalf("byte %d on the device is %d, stored %d through the span", x, got[x], byte(x*3))
		}
	}
}

// TestSpansBackToBack: the span taken first stays valid after a second
// faults its page in — at the smallest residency and with readahead
// asked for — so a store through it lands in the space.
func TestSpansBackToBack(t *testing.T) {
	const pages = 16
	for _, resident := range []int64{2, 3, 4} {
		t.Run(fmt.Sprintf("resident=%d", resident), func(t *testing.T) {
			s, err := NewOpts(pages*page.Size, resident*page.Size, blockdev.NewMemDevice(), Options{Readahead: 4})
			if err != nil {
				t.Fatal(err)
			}
			for pg := int64(0); pg < pages; pg++ { // back every page
				if err := s.SetFloat64(pg*wordsPerPage, 1); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 2; round++ {
				for pg := int64(0); pg+1 < pages; pg++ {
					first, err := s.Span(pg*wordsPerPage+7, 1, true)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Span((pg+1)*wordsPerPage+9, 1, true); err != nil {
						t.Fatal(err)
					}
					binary.LittleEndian.PutUint64(first, math.Float64bits(float64(pg)+0.5))
				}
			}
			for pg := int64(0); pg+1 < pages; pg++ {
				if v, err := s.Float64(pg*wordsPerPage + 7); err != nil || v != float64(pg)+0.5 {
					t.Fatalf("page %d reads %v, %v; stored %v through a span taken before the next page's", pg, v, err, float64(pg)+0.5)
				}
			}
			if st := s.Stats(); resident > 2 && st.Prefetch == 0 {
				t.Fatalf("no readahead at residency %d: the test is not exercising it (%+v)", resident, st)
			}
		})
	}
}

// TestSpanIsOneAccess: a span counts one access however many elements
// it holds, as an element accessor does.
func TestSpanIsOneAccess(t *testing.T) {
	s, err := New(4*page.Size, 4*page.Size, blockdev.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 100, wordsPerPage} {
		before := s.Stats().Accesses
		if _, err := s.Span(wordsPerPage, n, n%2 == 0); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Accesses - before; got != 1 {
			t.Fatalf("a span of %d elements counted %d accesses", n, got)
		}
	}
}
