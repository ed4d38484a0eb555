// Package apps implements the paper's six benchmark applications:
// GAUSS (Gaussian elimination), QSORT (quicksort of records), FFT
// (iterative radix-2 FFT), MVEC (matrix-vector multiply), FILTER
// (two-pass separable image filter, after Newman [20]) and CC (a
// kernel-build model).
//
// Each application has two facets that share one parameterization:
//
//   - Run executes the real algorithm over a vm.Space, so the
//     workloads genuinely fault through whatever backing device the
//     space is given — including the live TCP remote memory pager.
//     Used by examples, integration tests and live benchmarks at
//     laptop-friendly input sizes. Where the inner loop is a row walk
//     (GAUSS's row updates) Run takes the rows a page-span at a time
//     (vm.Space.Span), in the order the element loop would touch them,
//     so the device sees the same calls and the elements are plain
//     loads and stores.
//
//   - Trace emits the page-granular memory-reference stream of the
//     same algorithm at any size, including the paper's 1996 input
//     sizes, without doing the arithmetic. The experiment harness
//     replays traces through vm.Replayer to obtain pagein/pageout
//     streams for the timing models.
//
// Tests assert that Run and Trace produce closely matching fault
// counts at equal scale, so the paper-scale traces are trustworthy, and
// pin every Run's device-call sequence (testdata/runs.golden).
package apps

import (
	"fmt"

	"rmp/internal/blockdev"
	"rmp/internal/page"
	"rmp/internal/vm"
)

// EmitFunc receives one page-granular reference.
type EmitFunc func(pg int64, write bool)

// Workload is one benchmark application at a fixed input size.
type Workload interface {
	// Name is the paper's application id (e.g. "GAUSS").
	Name() string
	// Bytes is the address-space footprint.
	Bytes() int64
	// Run executes the real computation over s (whose size must be at
	// least Bytes) and returns a result checksum for verification.
	Run(s *vm.Space) (uint64, error)
	// Trace emits the page-reference stream of the same computation.
	Trace(emit EmitFunc)
}

// traceChunk is the element granularity at which traces emit page
// references: fine enough that the page sequence matches Run's, cheap
// enough that paper-scale traces stay compact.
const traceChunk = 512

// pagesOf converts a byte count to whole pages (rounding up).
func pagesOf(bytes int64) int64 {
	return (bytes + page.Size - 1) / page.Size
}

// pageOfByte returns the page holding byte offset off.
func pageOfByte(off int64) int64 { return off / page.Size }

// emitRange emits references covering bytes [off, off+n) in ascending
// page order.
func emitRange(emit EmitFunc, off, n int64, write bool) {
	if n <= 0 {
		return
	}
	first := pageOfByte(off)
	last := pageOfByte(off + n - 1)
	for pg := first; pg <= last; pg++ {
		emit(pg, write)
	}
}

// NewSpaceFor allocates a space big enough for w with the given
// resident budget, over dev.
func NewSpaceFor(w Workload, residentBytes int64, dev blockdev.Device) (*vm.Space, error) {
	return vm.New(w.Bytes(), residentBytes, dev)
}

// xorshift is the deterministic PRNG used for workload data, so that
// every run of an app computes the same result checksum.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	x := xorshift(seed*2862933555777941757 + 3037000493)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float01 returns a float in [0,1).
func (x *xorshift) float01() float64 {
	return float64(x.next()>>11) / (1 << 53)
}

// mix folds a value into a running checksum.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// All returns the paper's six applications at the given scale factor:
// scale 1.0 is the paper's input sizes (Figure 2 caption); smaller
// scales shrink the inputs proportionally for fast test runs.
func All(scale float64) []Workload {
	if scale <= 0 {
		scale = 1
	}
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 8 {
			v = 8
		}
		return v
	}
	return []Workload{
		NewGauss(s(1700)),
		NewQsort(s(3_000_000)),
		NewFFT(s(786_432)),
		NewMvec(s(2100)),
		NewFilter(s(4096), s(3072)),
		NewCC(s(160)),
	}
}

// ByName returns the workload with the given name from All(scale).
func ByName(name string, scale float64) (Workload, error) {
	for _, w := range All(scale) {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown workload %q", name)
}
