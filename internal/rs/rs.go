// Package rs implements Reed-Solomon erasure coding over GF(2^8) for
// the RS(k,m) redundancy policy: k data shards plus m parity shards,
// any k of the k+m surviving shards reconstruct the rest. With m = 1
// it is the XOR parity the paper ships, byte for byte (see the encode
// matrix below); with m > 1 the pager survives m simultaneous server
// crashes at (k+m)/k storage overhead — far below the m+1 copies
// mirroring would need.
//
// The field is GF(256) with the usual AES-adjacent polynomial x^8 +
// x^4 + x^3 + x^2 + 1 (0x11d). Scalar multiplies go through log/exp
// tables; the bulk encode/decode kernels use split low/high-nibble
// product tables (16 bytes per nibble per coefficient — 8 KB total
// instead of a 64 KB full product table, so both rows stay resident
// in L1) and the same eight-way unrolled loop idiom as page.XORInto,
// with the c == 1 path running the word-wide XOR kernel. Zero
// allocations throughout.
//
// The encode matrix is the systematic Cauchy construction: data shard
// i is the identity row e_i, parity row j is 1/(x_j + y_i) with
// x_j = k+j and y_i = i, and data column i is then scaled by x_0 + y_i
// so that the first parity row is all ones. Every square submatrix of
// a Cauchy matrix is nonsingular, and scaling a column by a nonzero
// constant keeps it so, so every k-subset of the k+m rows is
// invertible — the MDS property the decode path relies on. The
// all-ones row makes parity shard 0 the plain XOR of the data shards,
// computed on the c == 1 word-XOR path: RS(k,1) is single parity, not
// merely as tolerant as it. Decoding inverts the k×k
// matrix of the surviving rows (Gauss-Jordan over GF(256), in scratch
// buffers allocated once at New) and multiplies the survivors back
// through it.
//
// Code is pure math over caller-provided buffers: it decides nothing
// about placement and performs no I/O, mirroring the split between
// parity.Log and the pager.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxShards bounds k+m: the Cauchy points live in GF(256) and the
// construction needs k+m distinct field elements.
const MaxShards = 255

// gf tables, built once at package init.
var (
	logTbl [256]byte
	expTbl [510]byte // doubled so mul can skip the mod-255 reduction
	// mulLo[c][n] = c·n and mulHi[c][n] = c·(n<<4): split low/high
	// nibble product tables. GF(256) multiplication distributes over
	// XOR, so c·b = mulLo[c][b&15] ^ mulHi[c][b>>4]. Two 16-byte rows
	// per coefficient (8 KB for all 256) replace the 64 KB full product
	// table — the working set of one mulAdd drops from a 256-byte row
	// per coefficient in a 64 KB table to 32 bytes that L1 never
	// evicts.
	mulLo [256][16]byte
	mulHi [256][16]byte
)

func init() {
	// Generate GF(256) with generator 2 over polynomial 0x11d.
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		expTbl[i+255] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for c := 1; c < 256; c++ {
		for n := 1; n < 16; n++ {
			mulLo[c][n] = mulSlow(byte(c), byte(n))
			mulHi[c][n] = mulSlow(byte(c), byte(n<<4))
		}
	}
}

// mulSlow multiplies through the log/exp tables; used only to build
// the nibble tables and by the matrix math via mul.
func mulSlow(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

// mul multiplies two field elements.
func mul(a, b byte) byte { return mulSlow(a, b) }

// inv returns the multiplicative inverse of a (a must be nonzero).
func inv(a byte) byte {
	return expTbl[255-int(logTbl[a])]
}

// mulAdd computes dst ^= c·src over equal-length shards — the
// mul-accumulate kernel at the heart of encode and decode. It is the
// GF(256) generalization of page.XORInto and uses the same eight-way
// unrolled loop; c == 1 reduces exactly to XOR and c == 0 to a no-op.
func mulAdd(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("rs: mulAdd on %d/%d byte shards", len(dst), len(src)))
	}
	switch c {
	case 0:
		return
	case 1:
		xorInto(dst, src)
		return
	}
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		dst[i+0] ^= lo[src[i+0]&15] ^ hi[src[i+0]>>4]
		dst[i+1] ^= lo[src[i+1]&15] ^ hi[src[i+1]>>4]
		dst[i+2] ^= lo[src[i+2]&15] ^ hi[src[i+2]>>4]
		dst[i+3] ^= lo[src[i+3]&15] ^ hi[src[i+3]>>4]
		dst[i+4] ^= lo[src[i+4]&15] ^ hi[src[i+4]>>4]
		dst[i+5] ^= lo[src[i+5]&15] ^ hi[src[i+5]>>4]
		dst[i+6] ^= lo[src[i+6]&15] ^ hi[src[i+6]>>4]
		dst[i+7] ^= lo[src[i+7]&15] ^ hi[src[i+7]>>4]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= lo[src[i]&15] ^ hi[src[i]>>4]
	}
}

// xorInto is the c == 1 fast path: the same word-wide kernel as
// page.XORWords (8-byte loads/stores through encoding/binary),
// duplicated here so the package stays dependency-free.
func xorInto(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+32 <= n; i += 32 {
		d, s := dst[i:i+32:i+32], src[i:i+32:i+32]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^binary.LittleEndian.Uint64(s[0:8]))
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^binary.LittleEndian.Uint64(s[8:16]))
		binary.LittleEndian.PutUint64(d[16:24], binary.LittleEndian.Uint64(d[16:24])^binary.LittleEndian.Uint64(s[16:24]))
		binary.LittleEndian.PutUint64(d[24:32], binary.LittleEndian.Uint64(d[24:32])^binary.LittleEndian.Uint64(s[24:32]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8], binary.LittleEndian.Uint64(dst[i:i+8])^binary.LittleEndian.Uint64(src[i:i+8]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// mulAssign computes dst = c·src (overwriting dst).
func mulAssign(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("rs: mulAssign on %d/%d byte shards", len(dst), len(src)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	lo, hi := &mulLo[c], &mulHi[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		dst[i+0] = lo[src[i+0]&15] ^ hi[src[i+0]>>4]
		dst[i+1] = lo[src[i+1]&15] ^ hi[src[i+1]>>4]
		dst[i+2] = lo[src[i+2]&15] ^ hi[src[i+2]>>4]
		dst[i+3] = lo[src[i+3]&15] ^ hi[src[i+3]>>4]
		dst[i+4] = lo[src[i+4]&15] ^ hi[src[i+4]>>4]
		dst[i+5] = lo[src[i+5]&15] ^ hi[src[i+5]>>4]
		dst[i+6] = lo[src[i+6]&15] ^ hi[src[i+6]>>4]
		dst[i+7] = lo[src[i+7]&15] ^ hi[src[i+7]>>4]
	}
	for i := n; i < len(src); i++ {
		dst[i] = lo[src[i]&15] ^ hi[src[i]>>4]
	}
}

// Code is an RS(k,m) encoder/decoder. Not safe for concurrent use:
// Reconstruct shares scratch buffers across calls (the pager
// serializes through its single lock, like every other policy
// structure). Encode is read-only on the Code and safe to share.
type Code struct {
	k, m int
	// enc[j][i] is the coefficient of data shard i in parity row j.
	enc [][]byte

	// Decode scratch, allocated once so Reconstruct is allocation-free.
	mat    []byte // k×k matrix of the chosen survivor rows
	invMat []byte // its inverse
	chosen []int  // which shard index feeds each matrix row
}

// New builds an RS code with k data and m parity shards.
func New(k, m int) (*Code, error) {
	if k < 1 {
		return nil, errors.New("rs: need at least one data shard")
	}
	if m < 1 {
		return nil, errors.New("rs: need at least one parity shard")
	}
	if k+m > MaxShards {
		return nil, fmt.Errorf("rs: k+m = %d exceeds %d", k+m, MaxShards)
	}
	c := &Code{
		k:      k,
		m:      m,
		mat:    make([]byte, k*k),
		invMat: make([]byte, k*k),
		chosen: make([]int, k),
	}
	c.enc = make([][]byte, m)
	for j := 0; j < m; j++ {
		c.enc[j] = make([]byte, k)
		for i := 0; i < k; i++ {
			// Cauchy: 1/(x_j + y_i), x_j = k+j, y_i = i, with column i
			// scaled by x_0 + y_i so row 0 is all ones. In GF(2^8)
			// addition is XOR and the points are distinct, so neither
			// the denominator nor the scale is ever zero.
			c.enc[j][i] = mul(byte(k)^byte(i), inv(byte(k+j)^byte(i)))
		}
	}
	return c, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

// Total returns k+m.
func (c *Code) Total() int { return c.k + c.m }

// checkShards validates a shard set: want rows, all non-nil rows of
// one equal length.
func checkShards(shards [][]byte, want int) (int, error) {
	if len(shards) != want {
		return 0, fmt.Errorf("rs: got %d shards, want %d", len(shards), want)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("rs: shard %d is %d bytes, want %d", i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, errors.New("rs: no shard data")
	}
	return size, nil
}

// The cold-path error constructors live out of line, are kept out of
// line (//go:noinline), and take concrete ints: boxing fmt arguments
// escapes to the heap, and the escapegate holds the
// encode/reconstruct bodies to zero heap allocations.
//
//go:noinline
func errParitySize(p, d int) error {
	return fmt.Errorf("rs: parity shards are %d bytes, data %d", p, d)
}

//go:noinline
func errShardRange(i, max int) error {
	return fmt.Errorf("rs: data shard %d out of range 0..%d", i, max)
}

//go:noinline
func errParityCount(got, want int) error {
	return fmt.Errorf("rs: got %d parity shards, want %d", got, want)
}

//go:noinline
func errParityShardSize(j, p, d int) error {
	return fmt.Errorf("rs: parity shard %d is %d bytes, data %d", j, p, d)
}

//go:noinline
func errPresenceCount(got, want int) error {
	return fmt.Errorf("rs: got %d presence flags, want %d", got, want)
}

// Encode computes the m parity shards from the k data shards. parity
// buffers are caller-provided (and overwritten); all k+m shards must
// have equal length. Allocation-free.
//
//rmpvet:hotpath
func (c *Code) Encode(data, parity [][]byte) error {
	if _, err := checkShards(data, c.k); err != nil {
		return err
	}
	if _, err := checkShards(parity, c.m); err != nil {
		return err
	}
	if len(parity[0]) != len(data[0]) {
		return errParitySize(len(parity[0]), len(data[0]))
	}
	for j := 0; j < c.m; j++ {
		mulAssign(parity[j], data[0], c.enc[j][0])
		for i := 1; i < c.k; i++ {
			mulAdd(parity[j], data[i], c.enc[j][i])
		}
	}
	return nil
}

// EncodeOne accumulates data shard i's contribution into every parity
// buffer: parity[j] ^= enc[j][i]·data. Feeding shards 0..k-1 through
// EncodeOne over zeroed parity buffers equals one Encode call — the
// log-structured update path, where a group's members arrive one
// pageout at a time and holding all k in memory is unnecessary.
//
//rmpvet:hotpath
func (c *Code) EncodeOne(parity [][]byte, i int, data []byte) error {
	if i < 0 || i >= c.k {
		return errShardRange(i, c.k-1)
	}
	if len(parity) != c.m {
		return errParityCount(len(parity), c.m)
	}
	for j := 0; j < c.m; j++ {
		if len(parity[j]) != len(data) {
			return errParityShardSize(j, len(parity[j]), len(data))
		}
		mulAdd(parity[j], data, c.enc[j][i])
	}
	return nil
}

var (
	errParityNeedsData = errors.New("rs: cannot rebuild a parity shard while a data shard is left out")
	errPresentNil      = errors.New("rs: shard marked present is nil")
)

// ErrTooFewShards is returned by Reconstruct when fewer than k shards
// survive — the data is unrecoverable.
var ErrTooFewShards = errors.New("rs: fewer than k shards present")

// Reconstruct fills in the missing shards in place. shards holds all
// k+m rows in index order (data 0..k-1, parity k..k+m-1); present[i]
// reports whether row i holds valid bytes. A row with present[i] ==
// false is overwritten with the reconstruction if it is allocated to
// the shard length, and left out if it is nil — a caller after one
// page of a group does not pay for the rest. A missing parity row can
// only be rebuilt when no data row is left out. At least k rows must
// be present. Allocation-free: the decode matrix and its inverse live
// in scratch owned by the Code.
//
//rmpvet:hotpath
func (c *Code) Reconstruct(shards [][]byte, present []bool) error {
	if len(present) != c.k+c.m {
		return errPresenceCount(len(present), c.k+c.m)
	}
	if _, err := checkShards(shards, c.k+c.m); err != nil {
		return err
	}
	have := 0
	dataMissing, dataLeftOut := false, false
	for i, p := range present {
		if p {
			if shards[i] == nil {
				return errPresentNil
			}
			have++
		} else if i < c.k {
			dataMissing = true
			if shards[i] == nil {
				dataLeftOut = true
			}
		}
	}
	if have < c.k {
		return ErrTooFewShards
	}

	if dataMissing {
		// Pick the first k present rows and build their encode matrix.
		n := 0
		for i := 0; i < c.k+c.m && n < c.k; i++ {
			if present[i] {
				c.chosen[n] = i
				n++
			}
		}
		for r := 0; r < c.k; r++ {
			row := c.mat[r*c.k : (r+1)*c.k]
			src := c.chosen[r]
			if src < c.k {
				for i := range row {
					row[i] = 0
				}
				row[src] = 1
			} else {
				copy(row, c.enc[src-c.k])
			}
		}
		if err := c.invert(); err != nil {
			return err
		}
		// data_d = Σ_r invMat[d][r] · shards[chosen[r]].
		for d := 0; d < c.k; d++ {
			out := shards[d]
			if present[d] || out == nil {
				continue
			}
			mulAssign(out, shards[c.chosen[0]], c.invMat[d*c.k])
			for r := 1; r < c.k; r++ {
				mulAdd(out, shards[c.chosen[r]], c.invMat[d*c.k+r])
			}
		}
	}

	// With the data rows complete, re-encode any missing parity rows.
	for j := 0; j < c.m; j++ {
		out := shards[c.k+j]
		if present[c.k+j] || out == nil {
			continue
		}
		if dataLeftOut {
			return errParityNeedsData
		}
		mulAssign(out, shards[0], c.enc[j][0])
		for i := 1; i < c.k; i++ {
			mulAdd(out, shards[i], c.enc[j][i])
		}
	}
	return nil
}

// invert computes invMat = mat^-1 by Gauss-Jordan elimination over
// GF(256). mat is destroyed. The Cauchy construction guarantees the
// matrix is invertible for every survivor choice, so a singular
// matrix means caller corruption, reported as an error rather than a
// panic.
func (c *Code) invert() error {
	k := c.k
	a, b := c.mat, c.invMat
	for i := range b {
		b[i] = 0
	}
	for i := 0; i < k; i++ {
		b[i*k+i] = 1
	}
	for col := 0; col < k; col++ {
		// Find a pivot row at or below col.
		pivot := -1
		for r := col; r < k; r++ {
			if a[r*k+col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return errors.New("rs: singular decode matrix")
		}
		if pivot != col {
			swapRows(a, k, pivot, col)
			swapRows(b, k, pivot, col)
		}
		// Scale the pivot row to 1.
		if p := a[col*k+col]; p != 1 {
			ip := inv(p)
			scaleRow(a, k, col, ip)
			scaleRow(b, k, col, ip)
		}
		// Eliminate the column from every other row.
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := a[r*k+col]
			if f == 0 {
				continue
			}
			addRows(a, k, r, col, f)
			addRows(b, k, r, col, f)
		}
	}
	return nil
}

func swapRows(m []byte, k, r1, r2 int) {
	for i := 0; i < k; i++ {
		m[r1*k+i], m[r2*k+i] = m[r2*k+i], m[r1*k+i]
	}
}

func scaleRow(m []byte, k, r int, f byte) {
	for i := 0; i < k; i++ {
		m[r*k+i] = mul(m[r*k+i], f)
	}
}

// addRows folds f·row src into row dst.
func addRows(m []byte, k, dst, src int, f byte) {
	for i := 0; i < k; i++ {
		m[dst*k+i] ^= mul(f, m[src*k+i])
	}
}
