package vm

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rmp/internal/blockdev"
	"rmp/internal/page"
)

// refLRU is the reference model for the resident set: the policy
// Space and Replayer each implemented before they shared one core — a
// map of resident frames and a container/list, front most recent, the
// back the victim — with Space's readahead. It stores no data; it
// records the device calls a Space makes, in order, and Space's Stats.
type refLRU struct {
	pages      int64
	maxRes     int
	readahead  int
	resident   map[int64]*refFrame
	lru        *list.List
	written    map[int64]bool
	prefetched map[int64]bool
	lastIn     int64

	calls []Fault
	stats Stats
}

type refFrame struct {
	bn    int64
	dirty bool
	elem  *list.Element
}

func newRefLRU(pages int64, maxRes, readahead int) *refLRU {
	return &refLRU{
		pages:      pages,
		maxRes:     max(maxRes, 2),
		readahead:  readahead,
		resident:   make(map[int64]*refFrame),
		lru:        list.New(),
		written:    make(map[int64]bool),
		prefetched: make(map[int64]bool),
		lastIn:     -2,
	}
}

func (s *refLRU) access(bn int64, write bool) {
	s.stats.Accesses++
	if f := s.fault(bn); write {
		f.dirty = true
	}
}

func (s *refLRU) fault(bn int64) *refFrame {
	if f, ok := s.resident[bn]; ok {
		s.lru.MoveToFront(f.elem)
		if s.prefetched[bn] {
			delete(s.prefetched, bn)
			s.stats.PrefHits++
		}
		return f
	}
	f := s.materialize(bn)
	if s.readahead > 0 && s.written[bn] {
		sequential := bn == s.lastIn+1
		s.lastIn = bn
		limit := s.readahead
		if limit > s.maxRes-2 {
			limit = s.maxRes - 2
		}
		if sequential {
			for next := bn + 1; next <= bn+int64(limit); next++ {
				if next >= s.pages || !s.written[next] {
					break
				}
				if _, resident := s.resident[next]; resident {
					continue
				}
				s.materialize(next)
				s.prefetched[next] = true
				s.stats.Prefetch++
				s.lru.MoveToFront(f.elem)
			}
		}
	}
	return f
}

func (s *refLRU) materialize(bn int64) *refFrame {
	if len(s.resident) >= s.maxRes {
		back := s.lru.Back()
		v := back.Value.(*refFrame)
		if v.dirty {
			s.calls = append(s.calls, Fault{FaultOut, v.bn})
			s.written[v.bn] = true
			s.stats.PageOuts++
		}
		s.lru.Remove(back)
		delete(s.resident, v.bn)
		delete(s.prefetched, v.bn)
		s.stats.Evictions++
	}
	f := &refFrame{bn: bn}
	s.stats.Faults++
	if s.written[bn] {
		s.calls = append(s.calls, Fault{FaultIn, bn})
		s.stats.PageIns++
	}
	f.elem = s.lru.PushFront(f)
	s.resident[bn] = f
	return f
}

// recDevice is a MemDevice that records every block read and write, as
// the fault each one serves.
type recDevice struct {
	*blockdev.MemDevice
	calls []Fault
}

func (d *recDevice) ReadBlock(bn int64, buf page.Buf) error {
	d.calls = append(d.calls, Fault{FaultIn, bn})
	return d.MemDevice.ReadBlock(bn, buf)
}

func (d *recDevice) WriteBlock(bn int64, data page.Buf) error {
	d.calls = append(d.calls, Fault{FaultOut, bn})
	return d.MemDevice.WriteBlock(bn, data)
}

// lruTraces returns reference streams in the shapes applications
// make: repeated sweeps, strides, uniform random references and a mix
// of the three, each with writes mixed in.
func lruTraces(rng *rand.Rand, pages int64) map[string][]Ref {
	tr := make(map[string][]Ref)
	for round := 0; round < 3; round++ {
		for pg := int64(0); pg < pages; pg++ {
			tr["sweep"] = append(tr["sweep"], Ref{pg, round == 0 || pg%3 == 0})
		}
		for pg := pages - 1; pg >= 0; pg -= 2 {
			tr["sweep"] = append(tr["sweep"], Ref{pg, round == 1})
		}
	}
	for _, stride := range []int64{3, 7, pages - 1} {
		for i := int64(0); i < 3*pages; i++ {
			tr["stride"] = append(tr["stride"], Ref{i * stride % pages, rng.Intn(4) == 0})
		}
	}
	for i := 0; i < 2000; i++ {
		tr["uniform"] = append(tr["uniform"], Ref{rng.Int63n(pages), rng.Intn(3) == 0})
	}
	for len(tr["mixed"]) < 3000 {
		switch rng.Intn(3) {
		case 0: // a run, forward
			a := rng.Int63n(pages)
			for pg := a; pg < min(pages, a+rng.Int63n(12)+1); pg++ {
				tr["mixed"] = append(tr["mixed"], Ref{pg, rng.Intn(2) == 0})
			}
		case 1: // a hot set
			hot := rng.Int63n(pages)
			for i := 0; i < 20; i++ {
				tr["mixed"] = append(tr["mixed"], Ref{(hot + rng.Int63n(4)) % pages, rng.Intn(5) == 0})
			}
		default:
			tr["mixed"] = append(tr["mixed"], Ref{rng.Int63n(pages), rng.Intn(2) == 0})
		}
	}
	return tr
}

// checkResident asserts the resident set's invariants: at most maxRes
// frames, and the page table maps exactly the resident blocks, each to
// the slot holding it.
func checkResident(t *testing.T, s *Space) {
	t.Helper()
	if len(s.frames) > s.maxRes {
		t.Fatalf("%d frames resident, maximum %d", len(s.frames), s.maxRes)
	}
	mapped := 0
	for bn, e := range s.table {
		if e == 0 {
			continue
		}
		mapped++
		if f := s.frames[e-1]; f.bn != int64(bn) {
			t.Fatalf("table maps block %d to slot %d, which holds block %d", bn, e-1, f.bn)
		}
	}
	if mapped != len(s.frames) {
		t.Fatalf("%d blocks mapped, %d frames resident", mapped, len(s.frames))
	}
}

// TestResidentSetMatchesListLRU: over every trace shape and several
// residencies, Space (readahead 0 and 4) makes exactly the device calls
// the list-based model makes, in the same order, with the same Stats,
// and Replayer reports exactly the model's faults. Space runs the
// trace through its element and byte-range accessors against a shadow
// copy of the data, so a reused frame that leaks old contents fails it.
func TestResidentSetMatchesListLRU(t *testing.T) {
	const pages = 48
	for name, refs := range lruTraces(rand.New(rand.NewSource(1)), pages) {
		for _, resident := range []int{2, 3, 8, 17, pages, pages + 5} {
			for _, ra := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/resident=%d/readahead=%d", name, resident, ra), func(t *testing.T) {
					model := newRefLRU(pages, resident, ra)
					for _, r := range refs {
						model.access(r.Page, r.Write)
					}

					dev := &recDevice{MemDevice: blockdev.NewMemDevice()}
					s, err := NewOpts(pages*page.Size, int64(resident)*page.Size, dev, Options{Readahead: ra})
					if err != nil {
						t.Fatal(err)
					}
					shadow := make(map[int64]uint64)
					for i, r := range refs {
						w := r.Page*wordsPerPage + int64(i*37)%wordsPerPage
						if err := accessWord(s, w, r.Write, uint64(i+1), shadow); err != nil {
							t.Fatalf("ref %d (%+v): %v", i, r, err)
						}
					}
					checkResident(t, s)
					diffFaults(t, "space", dev.calls, model.calls)
					if s.Stats() != model.stats {
						t.Fatalf("space stats %+v, model %+v", s.Stats(), model.stats)
					}
					if s.ResidentPages() != len(model.resident) {
						t.Fatalf("space holds %d pages, model %d", s.ResidentPages(), len(model.resident))
					}
					if ra > 0 {
						return
					}
					var replayed []Fault
					rp := NewReplayer(resident, func(f Fault) { replayed = append(replayed, f) })
					rp.Refs(refs)
					checkResident(t, &rp.s)
					diffFaults(t, "replayer", replayed, model.calls)
					if ins, outs := rp.Counts(); ins != model.stats.PageIns || outs != model.stats.PageOuts {
						t.Fatalf("replayer counts (%d, %d), model (%d, %d)", ins, outs, model.stats.PageIns, model.stats.PageOuts)
					}
				})
			}
		}
	}
}

// accessWord makes one reference to element w — through the element
// accessors (Uint64, SetUint64) or the byte-range ones (Read, Write) —
// checking a read against shadow and recording a write in it.
func accessWord(s *Space, w int64, write bool, v uint64, shadow map[int64]uint64) error {
	var got uint64
	var err error
	switch {
	case write && v%2 == 0:
		err = s.SetUint64(w, v)
	case write:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		err = s.Write(w*8, b[:])
	case v%2 == 0:
		got, err = s.Uint64(w)
	default:
		var b [8]byte
		err = s.Read(w*8, b[:])
		got = binary.LittleEndian.Uint64(b[:])
	}
	if err != nil {
		return err
	}
	if write {
		shadow[w] = v
		return nil
	}
	if want := shadow[w]; got != want {
		return fmt.Errorf("element %d reads %#x, last written %#x", w, got, want)
	}
	return nil
}

func diffFaults(t *testing.T, who string, got, want []Fault) {
	t.Helper()
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s fault %d is %+v, model's %+v", who, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s made %d faults, model %d", who, len(got), len(want))
	}
}

var errFlaky = errors.New("flaky device: read failed")

// flakyDevice fails the next fail ReadBlocks after scribbling over the
// buffer, as a transfer that died halfway would.
type flakyDevice struct {
	*blockdev.MemDevice
	fail int
}

func (d *flakyDevice) ReadBlock(bn int64, buf page.Buf) error {
	if d.fail > 0 {
		d.fail--
		buf[0] = 0xEE
		return errFlaky
	}
	return d.MemDevice.ReadBlock(bn, buf)
}

// TestFailedPageinLeavesSpaceConsistent: a pagein that fails — into
// the victim's reused frame, or into a fresh one while the set is
// below its maximum — leaks no slot, keeps the resident set within
// bounds and its page table exact, loses no data, and the next access
// to the block retries the read and succeeds.
func TestFailedPageinLeavesSpaceConsistent(t *testing.T) {
	const pages, resident = 8, 4
	dev := &flakyDevice{MemDevice: blockdev.NewMemDevice()}
	s, err := New(pages*page.Size, resident*page.Size, dev)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < pages; pg++ {
		if err := s.SetUint64(pg*wordsPerPage, uint64(pg+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0's fault evicts page 4 into the store and fails reading 0
	// into its frame; page 1's then finds the set a frame short, and
	// fails reading into a fresh one.
	for _, pg := range []int64{0, 1} {
		dev.fail = 1
		if _, err := s.Uint64(pg * wordsPerPage); !errors.Is(err, errFlaky) {
			t.Fatalf("page %d: got %v, want the device's error", pg, err)
		}
		checkResident(t, s)
		if n := s.ResidentPages(); n != resident-1 {
			t.Fatalf("after the failed pagein of page %d: %d pages resident, want %d", pg, n, resident-1)
		}
	}
	for round := 0; round < 2; round++ {
		for pg := int64(0); pg < pages; pg++ {
			v, err := s.Uint64(pg * wordsPerPage)
			if err != nil {
				t.Fatalf("page %d after the failures: %v", pg, err)
			}
			if v != uint64(pg+1) {
				t.Fatalf("page %d reads %d, want %d", pg, v, pg+1)
			}
			checkResident(t, s)
		}
	}
}

// nopDevice stores nothing and allocates nothing; a read fills the
// buffer with zeros.
type nopDevice struct{}

func (nopDevice) ReadBlock(_ int64, buf page.Buf) error { clear(buf); return nil }
func (nopDevice) WriteBlock(int64, page.Buf) error      { return nil }
func (nopDevice) Discard(...int64) error                { return nil }
func (nopDevice) Close() error                          { return nil }

var (
	sinkU64 uint64
	sinkF64 float64
)

// TestAccessesDoNotAllocate: a resident access through any of the four
// element accessors or a page-long Span allocates nothing, and neither
// does a fault that
// pages a dirty victim out and the faulting page in — the victim's
// frame takes the page.
func TestAccessesDoNotAllocate(t *testing.T) {
	const pages, resident = 16, 4
	s, err := New(pages*page.Size, resident*page.Size, nopDevice{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for pg := int64(0); pg < pages; pg++ { // every page dirty and stored
		check(s.SetUint64(pg*wordsPerPage, 1))
	}
	const w = (pages - 1) * wordsPerPage // resident: written last
	for name, access := range map[string]func(){
		"Uint64":     func() { v, err := s.Uint64(w); check(err); sinkU64 += v },
		"SetUint64":  func() { check(s.SetUint64(w, 2)) },
		"Float64":    func() { v, err := s.Float64(w); check(err); sinkF64 += v },
		"SetFloat64": func() { check(s.SetFloat64(w, 2.5)) },
		"Span":       func() { b, err := s.Span(w, wordsPerPage, true); check(err); sinkU64 += uint64(len(b)) },
	} {
		before := s.Stats()
		if n := testing.AllocsPerRun(100, access); n != 0 {
			t.Errorf("%s on a resident page: %v allocations per access", name, n)
		}
		if st := s.Stats(); st.Faults != before.Faults {
			t.Fatalf("%s faulted %d times on a resident page", name, st.Faults-before.Faults)
		}
	}
	pg := int64(0)
	before := s.Stats()
	// Cycling through 16 pages with 4 frames, every access faults.
	n := testing.AllocsPerRun(100, func() {
		check(s.SetUint64(pg*wordsPerPage, uint64(pg)))
		pg = (pg + 1) % pages
	})
	if n != 0 {
		t.Errorf("a fault with a dirty eviction: %v allocations", n)
	}
	if st := s.Stats(); st.PageIns-before.PageIns != 101 || st.PageOuts-before.PageOuts != 101 {
		t.Fatalf("expected a pagein and a pageout per access, got %d and %d in 101 accesses",
			st.PageIns-before.PageIns, st.PageOuts-before.PageOuts)
	}
}
