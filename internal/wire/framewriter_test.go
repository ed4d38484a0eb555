package wire

import (
	"bytes"
	"net"
	"testing"

	"rmp/internal/page"
)

func frameBytes(t *testing.T, m *Msg) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFrameWriterMatchesAppendFrame: a flushed batch is byte-identical
// to the frames encoded one by one — head+payload split is invisible
// on the wire.
func TestFrameWriterMatchesAppendFrame(t *testing.T) {
	data := page.NewBuf()
	data.Fill(3)
	msgs := []*Msg{
		(&Msg{Version: Version2, ID: 1, Type: TPageOut, Key: 7, Data: data}).WithChecksum(),
		{Version: Version2, ID: 2, Type: TPageIn, Key: 9},
		{Version: Version, Type: TFree, Keys: []uint64{1, 2, 3}},
		{Version: Version, Type: THello, Host: "client", Data: []byte("token")},
	}
	var want bytes.Buffer
	for _, m := range msgs {
		want.Write(frameBytes(t, m))
	}

	var got bytes.Buffer
	fw := NewFrameWriter(&got)
	for _, m := range msgs {
		if err := fw.Queue(m); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Frames() != len(msgs) {
		t.Fatalf("Frames() = %d, want %d", fw.Frames(), len(msgs))
	}
	if fw.Buffered() != want.Len() {
		t.Fatalf("Buffered() = %d, want %d", fw.Buffered(), want.Len())
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("flushed batch differs from per-frame AppendFrame encoding")
	}
	if fw.Frames() != 0 || fw.Buffered() != 0 {
		t.Fatal("writer not empty after Flush")
	}
	// The flushed stream decodes back to the queued messages.
	r := bytes.NewReader(got.Bytes())
	for i, m := range msgs {
		d, err := DecodePooled(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMsg(d, m) {
			t.Fatalf("frame %d mangled: %+v vs %+v", i, d, m)
		}
	}
}

// coalescingWriter implements BuffersWriter the way memnet's conn
// does: one coalesced Write per flush.
type coalescingWriter struct {
	out     bytes.Buffer
	flushes int
}

func (cw *coalescingWriter) Write(p []byte) (int, error) { return cw.out.Write(p) }

func (cw *coalescingWriter) WriteBuffers(v *net.Buffers) (int64, error) {
	cw.flushes++
	return v.WriteTo(&cw.out)
}

// TestFrameWriterUsesBuffersWriter: a transport exposing the vectored
// hook receives the whole batch through it.
func TestFrameWriterUsesBuffersWriter(t *testing.T) {
	cw := &coalescingWriter{}
	fw := NewFrameWriter(cw)
	data := page.NewBuf()
	data.Fill(5)
	m := (&Msg{Version: Version2, ID: 3, Type: TPageOut, Key: 1, Data: data}).WithChecksum()
	if err := fw.Queue(m); err != nil {
		t.Fatal(err)
	}
	if err := fw.Queue(&Msg{Version: Version2, ID: 4, Type: TLoad}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.flushes != 1 {
		t.Fatalf("WriteBuffers called %d times, want 1", cw.flushes)
	}
	if !bytes.Equal(cw.out.Bytes(), append(frameBytes(t, m), frameBytes(t, &Msg{Version: Version2, ID: 4, Type: TLoad})...)) {
		t.Fatal("vectored flush produced wrong bytes")
	}
}

// TestFrameWriterZeroCopy: the payload is referenced until Flush, not
// copied at Queue — mutating the buffer between Queue and Flush ships
// the mutated bytes. This is the documented aliasing hazard, asserted
// here so a regression to copy-into-scratch is caught.
func TestFrameWriterZeroCopy(t *testing.T) {
	var out bytes.Buffer
	fw := NewFrameWriter(&out)
	data := page.NewBuf()
	data.Fill(1)
	m := &Msg{Version: Version2, ID: 9, Type: TPageOut, Key: 2, Data: data}
	if err := fw.Queue(m); err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF // mutate after Queue, before Flush
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := DecodePooled(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Data[0] != data[0] {
		t.Fatal("payload was copied at Queue time; writer must reference it until Flush")
	}
}

func TestFrameWriterEmptyFlush(t *testing.T) {
	fw := NewFrameWriter(&bytes.Buffer{})
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameWriterDropsPayloadRefs: after Flush the writer retains no
// payload references (pooled buffers must be recyclable).
func TestFrameWriterDropsPayloadRefs(t *testing.T) {
	var out bytes.Buffer
	fw := NewFrameWriter(&out)
	data := page.NewBuf()
	if err := fw.Queue(&Msg{Type: TPageOut, Key: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, d := range fw.datas[:cap(fw.datas)] {
		if d != nil {
			t.Fatalf("datas[%d] still referenced after Flush", i)
		}
	}
	for i, v := range fw.vecs[:cap(fw.vecs)] {
		if v != nil {
			t.Fatalf("vecs[%d] still referenced after Flush", i)
		}
	}
}
