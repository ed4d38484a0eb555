package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"rmp/internal/vm"
)

// Gauss is the paper's GAUSS application: Gaussian elimination (no
// pivoting) on an n x n float64 matrix, stored row-major. The paper
// runs n = 1700 (about 22 MB).
//
// The elimination is organized in pivot *panels* of gaussBlock rows,
// the standard page-aware formulation (in the spirit of the paper's
// reference [20]): a panel of pivot rows is factored while resident,
// then the trailing rows are swept once, each row receiving all of
// the panel's updates in a single pass. This turns the naive
// algorithm's n trailing sweeps (which thrash any LRU-like memory)
// into n/gaussBlock sweeps, giving 1996-plausible paging volumes
// while performing the same arithmetic.
type Gauss struct {
	n int
}

// gaussBlock is the pivot panel height (rows). 256 rows of a 1700-
// wide matrix is ~3.4 MB — comfortably resident on the paper's
// testbed while leaving room for the trailing row stream.
const gaussBlock = 256

// NewGauss creates a GAUSS instance on an n x n matrix.
func NewGauss(n int) *Gauss { return &Gauss{n: n} }

func (g *Gauss) Name() string { return "GAUSS" }

// Bytes is the matrix footprint.
func (g *Gauss) Bytes() int64 { return int64(g.n) * int64(g.n) * 8 }

// idx is the element index of A[i][j].
func (g *Gauss) idx(i, j int) int64 { return int64(i)*int64(g.n) + int64(j) }

// eliminateRow applies pivot row k to row i over columns k..n-1. It
// walks both rows a segment at a time, each segment inside one page of
// row k and one page of row i: row k's span is taken first and row i's
// second, the order the element loop touches them in, so the pages are
// referenced in the same sequence as element by element.
func (g *Gauss) eliminateRow(s *vm.Space, k, i int) error {
	pivot, err := s.Float64(g.idx(k, k))
	if err != nil {
		return err
	}
	if pivot == 0 {
		return fmt.Errorf("gauss: zero pivot at %d", k)
	}
	aik, err := s.Float64(g.idx(i, k))
	if err != nil {
		return err
	}
	factor := aik / pivot
	for j := k; j < g.n; {
		rowK, err := s.Span(g.idx(k, j), int64(g.n-j), false)
		if err != nil {
			return err
		}
		rowI, err := s.Span(g.idx(i, j), int64(len(rowK)/8), true)
		if err != nil {
			return err
		}
		rowK = rowK[:len(rowI)]
		for x := 0; x < len(rowI); x += 8 {
			akj := math.Float64frombits(binary.LittleEndian.Uint64(rowK[x:]))
			aij := math.Float64frombits(binary.LittleEndian.Uint64(rowI[x:]))
			binary.LittleEndian.PutUint64(rowI[x:], math.Float64bits(aij-factor*akj))
		}
		j += len(rowI) / 8
	}
	return nil
}

// Run initializes the matrix deterministically, eliminates panel by
// panel, and checksums the diagonal (the pivots).
func (g *Gauss) Run(s *vm.Space) (uint64, error) {
	n := g.n
	rng := newXorshift(uint64(n))
	// Diagonally dominant matrix: elimination is numerically tame.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.float01()
			if i == j {
				v += float64(n)
			}
			if err := s.SetFloat64(g.idx(i, j), v); err != nil {
				return 0, err
			}
		}
	}

	for kb := 0; kb < n; kb += gaussBlock {
		kend := kb + gaussBlock
		if kend > n {
			kend = n
		}
		// Factor the panel: eliminate within rows kb..kend-1.
		for k := kb; k < kend-1; k++ {
			for i := k + 1; i < kend; i++ {
				if err := g.eliminateRow(s, k, i); err != nil {
					return 0, err
				}
			}
		}
		// Trailing update: each row below the panel receives every
		// panel pivot in one visit.
		for i := kend; i < n; i++ {
			for k := kb; k < kend; k++ {
				if err := g.eliminateRow(s, k, i); err != nil {
					return 0, err
				}
			}
		}
	}

	h := uint64(14695981039346656037)
	for k := 0; k < n; k++ {
		v, err := s.Float64(g.idx(k, k))
		if err != nil {
			return 0, err
		}
		h = mix(h, math.Float64bits(v))
	}
	return h, nil
}

// traceRowPair emits the page refs of eliminateRow(k, i): pivot row k
// read and row i read-written over columns k..n-1, alternating in
// chunks.
func (g *Gauss) traceRowPair(emit EmitFunc, k, i int64) {
	n := int64(g.n)
	emit(pageOfByte((k*n+k)*8), false) // pivot
	emit(pageOfByte((i*n+k)*8), false) // factor
	for j := k; j < n; j += traceChunk {
		end := j + traceChunk
		if end > n {
			end = n
		}
		emitRange(emit, (k*n+j)*8, (end-j)*8, false)
		emitRange(emit, (i*n+j)*8, (end-j)*8, true)
	}
}

// Trace emits the page-reference stream of Run.
func (g *Gauss) Trace(emit EmitFunc) {
	n := int64(g.n)
	emitRange(emit, 0, n*n*8, true) // initialization

	for kb := int64(0); kb < n; kb += gaussBlock {
		kend := kb + gaussBlock
		if kend > n {
			kend = n
		}
		for k := kb; k < kend-1; k++ {
			for i := k + 1; i < kend; i++ {
				g.traceRowPair(emit, k, i)
			}
		}
		for i := kend; i < n; i++ {
			for k := kb; k < kend; k++ {
				g.traceRowPair(emit, k, i)
			}
		}
	}

	for k := int64(0); k < n; k++ { // checksum pass
		emit(pageOfByte((k*n+k)*8), false)
	}
}
