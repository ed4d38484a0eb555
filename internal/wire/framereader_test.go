package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"rmp/internal/page"
)

// framesOut is the number of frame-class pool buffers handed out and
// not yet returned, process-wide.
func framesOut() int64 {
	_, f := page.Stats()
	return int64(f.Gets) - int64(f.Puts) - int64(f.Discards)
}

// streamMsgs is a pipelined session in miniature: frames with and
// without Data, tagged and not, so a reader meets every hand-over case
// — buffer leaves with the Msg, buffer stays, read-ahead carried.
func streamMsgs() []*Msg {
	big := page.NewBuf()
	big.Fill(9)
	return []*Msg{
		{Version: Version, Type: THelloAck, Flags: FlagV2, N: 8},
		(&Msg{Version: Version2, ID: 1, Type: TPageOut, Key: 1, Data: big}).WithChecksum(),
		{Version: Version2, ID: 2, Type: TPageIn, Key: 1},
		{Version: Version2, ID: 3, Type: TFree, Keys: []uint64{4, 5, 6}},
		(&Msg{Version: Version2, ID: 4, Type: TPageInAck, Key: 1, Data: big}).WithChecksum(),
		(&Msg{Version: Version2, ID: 5, Type: TPageOut, Key: 2, Data: big[:100]}).WithChecksum(),
		{Version: Version2, ID: 6, Type: TJoin, Host: "10.0.0.9:7077"},
		{Version: Version2, ID: 7, Type: TPageOutAck, Key: 2},
	}
}

func encodeAll(t testing.TB, msgs []*Msg) []byte {
	t.Helper()
	var raw []byte
	for _, m := range msgs {
		var err error
		if raw, err = AppendFrame(raw, m); err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

// chunkReader hands out its stream in reads of the given sizes (the
// last size repeats), whatever buffer it is offered.
type chunkReader struct {
	data  []byte
	sizes []int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.sizes[0]
	if len(c.sizes) > 1 {
		c.sizes = c.sizes[1:]
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// readAll decodes src to its end through one FrameReader, recycling as
// it goes, and requires exactly want.
func readAll(t *testing.T, src io.Reader, want []*Msg) {
	t.Helper()
	fr := NewFrameReader(src)
	for i, w := range want {
		m, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMsg(m, w) {
			t.Fatalf("frame %d mangled:\n got  %+v\n want %+v", i, m, w)
		}
		Recycle(m)
	}
	if m, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: got %+v, %v; want io.EOF", m, err)
	}
}

// TestFrameReaderDeliveries: the frames that come out do not depend on
// how the transport cut the stream — one byte per read, everything in
// one read, two and a half frames per read, or a read that ends inside
// the 16 header bytes of a frame whose predecessor took the buffer with
// it (the carry-over straddle).
func TestFrameReaderDeliveries(t *testing.T) {
	msgs := streamMsgs()
	raw := encodeAll(t, msgs)
	first := len(encodeAll(t, msgs[:1]))
	second := len(encodeAll(t, msgs[1:2]))
	third := len(encodeAll(t, msgs[2:3]))
	base := framesOut()
	for name, src := range map[string]io.Reader{
		"one byte at a time": iotest.OneByteReader(bytes.NewReader(raw)),
		"whole stream":       bytes.NewReader(raw),
		"data errors late":   iotest.DataErrReader(bytes.NewReader(raw)),
		// Frames 1, 2 and half of 3 in the first read.
		"two and a half frames": &chunkReader{data: raw, sizes: []int{first + second + third/2, 1 << 20}},
		// The read that completes frame 2 (which carries Data, so the
		// buffer leaves with it) ends 5 bytes into frame 3's header.
		"straddling the carry-over": &chunkReader{data: raw, sizes: []int{first, second + 5, 3, 1 << 20}},
		"short reads":               &chunkReader{data: raw, sizes: []int{7}},
	} {
		t.Run(name, func(t *testing.T) { readAll(t, src, msgs) })
	}
	if out := framesOut(); out != base {
		t.Fatalf("%d frame buffers not returned to the pool", out-base)
	}
}

// TestFrameReaderErrorsReturnBuffer: a stream that breaks — EOF or bad
// magic in the middle of a frame, a bad version, an oversized length —
// yields the error and leaves no pooled buffer behind, whether the
// break comes in the first frame or in read-ahead carried past one.
func TestFrameReaderErrorsReturnBuffer(t *testing.T) {
	msgs := streamMsgs()
	good := encodeAll(t, msgs[:2]) // a bare frame, then one with Data
	frame := encodeAll(t, msgs[1:2])
	corrupt := func(at int, b byte) []byte {
		f := append([]byte(nil), frame...)
		f[at] = b
		return f
	}
	for name, tc := range map[string]struct {
		tail []byte
		want error
	}{
		"EOF mid-header":  {frame[:7], io.ErrUnexpectedEOF},
		"EOF mid-payload": {frame[:len(frame)-100], io.ErrUnexpectedEOF},
		"bad magic":       {corrupt(0, 'X'), ErrBadMagic},
		"bad version":     {corrupt(2, 9), ErrBadVersion},
		"oversized":       {corrupt(8, 0xFF), ErrTooLarge},
		"truncated field": {corrupt(len(frame)-page.Size-1, 0xFF), ErrTruncated},
	} {
		t.Run(name, func(t *testing.T) {
			base := framesOut()
			for _, prefix := range [][]byte{nil, good} {
				fr := NewFrameReader(bytes.NewReader(append(append([]byte(nil), prefix...), tc.tail...)))
				var err error
				for err == nil {
					var m *Msg
					m, err = fr.Next()
					Recycle(m)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
			}
			if out := framesOut(); out != base {
				t.Fatalf("%d frame buffers not returned to the pool", out-base)
			}
		})
	}
}

// TestFrameReaderReleaseReturnsReadAhead: a reader abandoned with the
// head of the next frame buffered gives that buffer back.
func TestFrameReaderReleaseReturnsReadAhead(t *testing.T) {
	base := framesOut()
	fr := NewFrameReader(bytes.NewReader(encodeAll(t, streamMsgs()[1:3])))
	m, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	Recycle(m)
	if framesOut() == base {
		t.Fatal("no read-ahead was buffered: the test does not test Release")
	}
	fr.Release()
	if out := framesOut(); out != base {
		t.Fatalf("%d frame buffers not returned to the pool", out-base)
	}
}

// TestFrameReaderOneReadPerFrame: a frame that is there arrives in a
// single Read, and a burst of bare acks costs one Read for all of them.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	msgs := streamMsgs()
	pageout := encodeAll(t, msgs[1:2])
	var acks []*Msg
	for i := 0; i < 32; i++ {
		acks = append(acks, &Msg{Version: Version2, ID: uint32(i), Type: TPageOutAck})
	}
	for name, tc := range map[string]struct {
		raw    []byte
		frames int
	}{
		"one 8 KB frame": {pageout, 1},
		"32 bare acks":   {encodeAll(t, acks), 32},
	} {
		t.Run(name, func(t *testing.T) {
			src := &countingReader{r: bytes.NewReader(tc.raw)}
			fr := NewFrameReader(src)
			for i := 0; i < tc.frames; i++ {
				m, err := fr.Next()
				if err != nil {
					t.Fatal(err)
				}
				Recycle(m)
			}
			fr.Release()
			if src.reads != 1 {
				t.Fatalf("%d frames took %d reads, want 1", tc.frames, src.reads)
			}
		})
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderZeroAllocs: a tagged 8 KB frame, and the bare frame
// after it, decode without allocating once the pools are warm — the
// figure the escapegate proves statically for Next and fill.
func TestFrameReaderZeroAllocs(t *testing.T) {
	msgs := streamMsgs()
	raw := encodeAll(t, msgs[1:3])
	r := bytes.NewReader(raw)
	fr := NewFrameReader(r)
	defer fr.Release()
	pair := func() {
		r.Reset(raw)
		for i := 0; i < 2; i++ {
			m, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			Recycle(m)
		}
	}
	for i := 0; i < 4; i++ {
		pair() // warm the frame and Msg pools
	}
	if avg := testing.AllocsPerRun(200, pair); avg != 0 {
		t.Fatalf("decoding two frames allocates %.1f objects, want 0", avg)
	}
}

// raceDetector is set by alloc_race_test.go in -race builds.
var raceDetector = false

// TestFrameReaderZeroAllocsRepeatedHost: the home server's patch stream
// — XORWRITEs naming their parity server, PAGEINs between them — decodes
// through one reader with no allocation after the first frame: a Host
// that repeats the previous one is that string again. A different Host
// still decodes as itself.
func TestFrameReaderZeroAllocsRepeatedHost(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector: the count is noise")
	}
	const parity = "10.0.0.2:7182"
	delta := page.NewBuf()
	delta.Fill(3)
	xor := func(id uint32, host string) *Msg {
		return (&Msg{Version: Version2, ID: id, Type: TXorWrite, Key: 9, ParityKey: 40, Host: host, Data: delta}).WithChecksum()
	}
	raw := encodeAll(t, []*Msg{xor(1, parity), {Version: Version2, ID: 2, Type: TPageIn, Key: 9}, xor(3, parity)})
	r := bytes.NewReader(raw)
	fr := NewFrameReader(r)
	defer fr.Release()
	stream := func() {
		r.Reset(raw)
		for i := 0; i < 3; i++ {
			m, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if (m.Host == parity) != (m.Type == TXorWrite) || (m.Host != parity && m.Host != "") {
				t.Fatalf("frame %d (%v) decodes Host %q", i, m.Type, m.Host)
			}
			Recycle(m)
		}
	}
	for i := 0; i < 4; i++ {
		stream() // the first frame's Host, and the frame and Msg pools
	}
	if avg := testing.AllocsPerRun(200, stream); avg != 0 {
		t.Fatalf("XORWRITE, PAGEIN, XORWRITE allocate %.1f objects, want 0", avg)
	}

	r.Reset(encodeAll(t, []*Msg{xor(4, "10.0.0.3:7183")}))
	m, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m.Host != "10.0.0.3:7183" {
		t.Fatalf("a new Host decodes as %q", m.Host)
	}
	Recycle(m)
}

// FuzzFrameReader holds the reader to the encoder: whatever messages
// the fuzzer describes are encoded with AppendFrame, cut into reads of
// fuzzer-chosen sizes, and must come back out of one FrameReader
// exactly as they went in, with every pooled buffer returned.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0, 0, 1, 200, 2, 3, 0, 9}, []byte{1})
	f.Add([]byte{1, 255, 1, 255, 0, 0, 1, 7}, []byte{60, 5, 255, 1})
	f.Add([]byte{2, 1, 3, 2, 1, 128}, []byte{16, 16, 3})
	f.Fuzz(func(t *testing.T, spec, cuts []byte) {
		if len(spec) > 64 {
			spec = spec[:64]
		}
		// Two spec bytes per message: a shape and a size.
		var msgs []*Msg
		for i := 0; i+1 < len(spec); i += 2 {
			shape, size := spec[i]%4, int(spec[i+1])
			m := &Msg{Version: Version2, ID: uint32(i), Type: Type(1 + spec[i]%26), Key: uint64(size)}
			switch shape {
			case 1:
				m.Data = bytes.Repeat([]byte{spec[i+1]}, size*page.Size/255)
				m.WithChecksum()
			case 2:
				m.Host = string(bytes.Repeat([]byte{'h'}, size))
			case 3:
				m.Version, m.ID = Version, 0
				m.Keys = make([]uint64, size%16)
			}
			msgs = append(msgs, m)
		}
		raw := encodeAll(t, msgs)
		sizes := []int{1 << 20}
		if len(cuts) > 0 {
			sizes = sizes[:0]
			for _, c := range cuts {
				sizes = append(sizes, 1+int(c)*64)
			}
		}
		base := framesOut()
		fr := NewFrameReader(&chunkReader{data: raw, sizes: sizes})
		for i, want := range msgs {
			m, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(msgs), err)
			}
			if !sameMsg(m, want) {
				t.Fatalf("frame %d mangled:\n got  %+v\n want %+v", i, m, want)
			}
			Recycle(m)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		if out := framesOut(); out != base {
			t.Fatalf("%d frame buffers not returned to the pool", out-base)
		}
	})
}
