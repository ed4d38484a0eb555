// Package vm implements a user-space demand-paged address space.
//
// It stands in for the DEC OSF/1 virtual memory system of the paper:
// applications address a flat byte range, a bounded set of page
// frames is kept resident under LRU replacement, and evictions /
// faults issue page-sized block I/O to a blockdev.Device — which in
// the paper's configuration is the remote memory pager.
//
// Semantics follow a real pager: pages are demand-zero on first
// touch (no backing read), clean evictions are free (the backing copy
// is still valid), and only dirty evictions page out.
//
// Space and the data-free Replayer share one resident set: a flat page
// table over a slab of frames, exact LRU by stamp. A resident access is
// a table index and a stamp, as a hardware load is; software runs on a
// fault, which scans for the least stamp and hands the victim's frame,
// buffer and all, to the incoming page.
//
// Elements (8 bytes each) are reached through one path, Span: the bytes
// of a run of elements up to the end of their page, aliasing the frame,
// for one access however many elements the caller then loads or stores
// through it. The element accessors (Float64, Uint64 and their setters)
// are its one-element case. A span stays valid until a later call
// faults another page in; a fault never evicts the most recently
// touched frame, so two spans taken back to back are both valid.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rmp/internal/blockdev"
	"rmp/internal/page"
)

// Stats counts paging activity of a Space.
type Stats struct {
	Faults    uint64 // frames materialized (zero-fill + pageins)
	PageIns   uint64 // faults served by reading the backing device
	PageOuts  uint64 // dirty evictions written to the backing device
	Evictions uint64 // total evictions (clean + dirty)
	Accesses  uint64 // byte-range accesses (not individual bytes)
	Prefetch  uint64 // pages read ahead speculatively
	PrefHits  uint64 // demand faults absorbed by an earlier prefetch
}

// Options tunes a Space beyond size and residency.
type Options struct {
	// Readahead is how many sequentially-next backed pages to
	// prefetch after a demand pagein that continues a sequential run.
	// 0 disables readahead. Real pagers (including OSF/1's) cluster
	// pageins this way; the benchmark harness quantifies its effect
	// in the READAHEAD ablation.
	Readahead int
}

// Space is a demand-paged address space. Not safe for concurrent use:
// it models a single faulting process, like the paper's applications.
type Space struct {
	size    int64 // bytes
	backing blockdev.Device
	opts    Options
	table   []int32 // block number -> slot+1 in frames; 0: not resident
	frames  []frame // at most maxRes, in no particular order
	maxRes  int
	clock   uint64 // stamps each reference; the least stamped frame is the LRU
	written []bool // block number -> has a copy on the device (else zero-fill)
	noData  bool   // a Replayer's: frames carry no buffers
	lastIn  int64  // block of the previous demand pagein, for run detection
	stats   Stats
}

// frame is one slot of the resident set.
type frame struct {
	bn         int64
	data       page.Buf
	used       uint64 // clock at the latest reference
	dirty      bool
	prefetched bool // read ahead and not yet demanded
}

// New creates a space of size bytes backed by dev, keeping at most
// residentBytes resident (rounded down to whole pages, minimum two
// pages so cross-page accesses can always complete).
func New(size, residentBytes int64, dev blockdev.Device) (*Space, error) {
	return NewOpts(size, residentBytes, dev, Options{})
}

// NewOpts is New with tuning options.
func NewOpts(size, residentBytes int64, dev blockdev.Device, opts Options) (*Space, error) {
	if size <= 0 {
		return nil, errors.New("vm: size must be positive")
	}
	opts.Readahead = max(opts.Readahead, 0)
	blocks := (size + page.Size - 1) / page.Size
	return &Space{
		size:    size,
		backing: dev,
		opts:    opts,
		table:   make([]int32, blocks),
		maxRes:  max(int(residentBytes/page.Size), 2),
		written: make([]bool, blocks),
		lastIn:  -2,
	}, nil
}

// Size returns the space's size in bytes.
func (s *Space) Size() int64 { return s.size }

// Stats returns a snapshot of the paging counters.
func (s *Space) Stats() Stats { return s.stats }

// ResidentPages returns the current number of resident frames.
func (s *Space) ResidentPages() int { return len(s.frames) }

// frame references block bn — faulting it in if it is not resident,
// marking it dirty for a store — and returns its buffer.
//
//rmpvet:hotpath
func (s *Space) frame(bn int64, store bool) (page.Buf, error) {
	if bn < int64(len(s.table)) && s.table[bn] != 0 {
		f := &s.frames[s.table[bn]-1]
		s.clock++
		f.used = s.clock
		f.dirty = f.dirty || store
		if f.prefetched {
			f.prefetched = false
			s.stats.PrefHits++
		}
		return f.data, nil
	}
	slot, err := s.materialize(bn)
	if err == nil && s.opts.Readahead > 0 && s.written[bn] {
		err = s.readahead(bn, slot)
	}
	if err != nil {
		return nil, err
	}
	f := &s.frames[slot]
	f.dirty = store
	return f.data, nil
}

// readahead follows a demand pagein of bn, into slot, that continues a
// sequential run by reading the next backed blocks in. Capped below the
// resident size, and re-promoting the demand frame after every
// prefetch, it can never evict the frame it follows.
func (s *Space) readahead(bn int64, slot int) error {
	prev := s.lastIn
	if s.lastIn = bn; bn != prev+1 {
		return nil
	}
	for next := bn + 1; next <= bn+int64(min(s.opts.Readahead, s.maxRes-2)); next++ {
		if next*page.Size >= s.size || !s.written[next] {
			break
		}
		if s.table[next] != 0 {
			continue
		}
		ahead, err := s.materialize(next)
		if err != nil {
			return err
		}
		s.frames[ahead].prefetched = true
		s.stats.Prefetch++
		s.clock++
		s.frames[slot].used = s.clock
	}
	return nil
}

// materialize brings block bn into a frame and returns its slot: a new
// one while fewer than maxRes are resident, else the LRU victim's, paged
// out if dirty and cleared only for a demand-zero fault.
func (s *Space) materialize(bn int64) (int, error) {
	slot := len(s.frames)
	fresh := slot < s.maxRes
	if fresh {
		s.frames = append(s.frames, frame{})
	} else { // the victim: the least recently stamped frame
		slot = 0
		least := s.frames[0].used
		for i := range s.frames {
			if u := s.frames[i].used; u < least {
				slot, least = i, u
			}
		}
	}
	f := &s.frames[slot]
	if fresh && !s.noData {
		f.data = page.NewBuf()
	} else if !fresh {
		if f.dirty {
			if err := s.backing.WriteBlock(f.bn, f.data); err != nil {
				return -1, fmt.Errorf("vm: pageout block %d: %w", f.bn, err)
			}
			s.written[f.bn] = true
			s.stats.PageOuts++
		}
		s.table[f.bn] = 0
		s.stats.Evictions++
	}
	s.stats.Faults++
	if bn >= int64(len(s.table)) { // a Replayer's table grows on demand
		n := max(bn+1, 2*int64(len(s.table)))
		s.table = append(s.table, make([]int32, n-int64(len(s.table)))...)
		s.written = append(s.written, make([]bool, n-int64(len(s.written)))...)
	}
	switch {
	case s.written[bn]:
		if err := s.backing.ReadBlock(bn, f.data); err != nil {
			s.release(slot)
			return -1, fmt.Errorf("vm: pagein block %d: %w", bn, err)
		}
		s.stats.PageIns++
	case !fresh:
		clear(f.data)
	}
	s.table[bn] = int32(slot + 1)
	s.clock++
	*f = frame{bn: bn, data: f.data, used: s.clock}
	return slot, nil
}

// release frees a slot claimed for a page that never arrived, moving
// the last frame into it so the slab stays dense.
func (s *Space) release(slot int) {
	last := len(s.frames) - 1
	if slot != last {
		s.frames[slot] = s.frames[last]
		s.table[s.frames[slot].bn] = int32(slot + 1)
	}
	s.frames = s.frames[:last]
}

// Flush writes every dirty resident page to the backing device (like
// a process exit syncing its swap), in ascending block order so a
// disk-backed device sees a sequential stream.
func (s *Space) Flush() error {
	for _, e := range s.table {
		if e == 0 || !s.frames[e-1].dirty {
			continue
		}
		f := &s.frames[e-1]
		if err := s.backing.WriteBlock(f.bn, f.data); err != nil {
			return err
		}
		s.written[f.bn] = true
		s.stats.PageOuts++
		f.dirty = false
	}
	return nil
}

// Close discards backing storage for the whole space.
func (s *Space) Close() error {
	var bns []int64
	for bn, w := range s.written {
		if w {
			bns = append(bns, int64(bn))
		}
	}
	return s.backing.Discard(bns...)
}

// checkRange validates [off, off+n).
func (s *Space) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > s.size {
		return fmt.Errorf("vm: access [%d,%d) outside space of %d bytes", off, off+int64(n), s.size)
	}
	return nil
}

// Read copies len(b) bytes at offset off into b.
func (s *Space) Read(off int64, b []byte) error {
	if err := s.checkRange(off, len(b)); err != nil {
		return err
	}
	s.stats.Accesses++
	for len(b) > 0 {
		data, err := s.frame(off/page.Size, false)
		if err != nil {
			return err
		}
		n := copy(b, data[off%page.Size:])
		off += int64(n)
		b = b[n:]
	}
	return nil
}

// Write copies b into the space at offset off.
func (s *Space) Write(off int64, b []byte) error {
	if err := s.checkRange(off, len(b)); err != nil {
		return err
	}
	s.stats.Accesses++
	for len(b) > 0 {
		data, err := s.frame(off/page.Size, true)
		if err != nil {
			return err
		}
		n := copy(data[off%page.Size:], b)
		off += int64(n)
		b = b[n:]
	}
	return nil
}

// wordsPerPage is how many 8-byte elements a page holds: an element
// never straddles two pages.
const wordsPerPage = page.Size / 8

// Span returns the bytes of elements [i, i+m) (8-byte elements), where
// m is n cut short at the end of element i's page or of the space. It
// is one access: a resident page is a table index and a stamp away, a
// miss faults through frame as Read and Write do, and a store marks the
// frame dirty. The slice aliases the frame, so loads and stores through
// it are plain memory operations; it stays valid until a later call
// faults another page in. A fault never evicts the most recently
// touched frame (residency is at least two and readahead stops two
// short of it), so two spans taken back to back are both valid.
//
//rmpvet:hotpath
func (s *Space) Span(i, n int64, store bool) ([]byte, error) {
	elems := uint64(s.size) / 8
	if n <= 0 || uint64(i) >= elems {
		return nil, s.badSpan(i, n)
	}
	off := uint64(i) % wordsPerPage
	end := min(off+uint64(n), wordsPerPage, off+elems-uint64(i))
	s.stats.Accesses++
	data, err := s.frame(int64(uint64(i)/wordsPerPage), store)
	if err != nil {
		return nil, err
	}
	return data[off*8 : end*8], nil
}

// badSpan reports a span of no elements or starting outside the space,
// out of line so Span carries no fmt boxing.
//
//go:noinline
func (s *Space) badSpan(i, n int64) error {
	return fmt.Errorf("vm: span of %d elements at element %d of a %d-byte space", n, i, s.size)
}

// Float64 reads the float64 at element index i (8-byte elements).
func (s *Space) Float64(i int64) (float64, error) {
	v, err := s.Uint64(i)
	return math.Float64frombits(v), err
}

// SetFloat64 writes the float64 at element index i.
func (s *Space) SetFloat64(i int64, v float64) error {
	return s.SetUint64(i, math.Float64bits(v))
}

// Uint64 reads the uint64 at element index i: a one-element Span.
//
//rmpvet:hotpath
func (s *Space) Uint64(i int64) (v uint64, err error) {
	w, err := s.Span(i, 1, false)
	if err == nil {
		v = binary.LittleEndian.Uint64(w)
	}
	return v, err
}

// SetUint64 writes the uint64 at element index i: a one-element Span.
//
//rmpvet:hotpath
func (s *Space) SetUint64(i int64, v uint64) error {
	w, err := s.Span(i, 1, true)
	if err == nil {
		binary.LittleEndian.PutUint64(w, v)
	}
	return err
}
