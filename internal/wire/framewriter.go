// FrameWriter is the zero-copy batching half of the wire codec:
// senders queue frames as (head bytes, payload reference) pairs and
// flush them through one vectored write. Payload bytes are
// never copied into scratch — the writev vector points straight at
// the caller's page buffers — which is what keeps an 8 KB pageout at
// "one header encode plus one syscall" instead of "one full frame
// memcpy per page".
package wire

import (
	"io"
	"net"
)

// BuffersWriter is the vectored-write hook a transport can implement
// to receive a whole flush as one scatter/gather list. net.Buffers
// already drives writev on real TCP connections via the net package's
// internal interface; BuffersWriter is the exported equivalent for
// transports outside package net — memnet's in-memory conn implements
// it so tests exercise the same single-write batching path production
// takes. Implementations must consume v the way net.Buffers.WriteTo
// does (advancing the slice and nil-ing written elements).
type BuffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// FrameWriter batches encoded frames for a single vectored write.
// Queue encodes only the frame head (header + fixed fields) into an
// internal scratch buffer and records a reference to the payload;
// Flush builds a net.Buffers vector alternating heads and payloads
// and writes it out in one call — writev on a TCP conn, WriteBuffers
// on transports implementing the hook, sequential Writes otherwise.
//
// Aliasing hazard: a queued payload slice is read at Flush time, not
// Queue time. The caller must keep every queued Data buffer intact
// and unmodified until Flush returns; recycling or rewriting a queued
// page before the flush would ship corrupt bytes. After Flush returns
// the writer holds no references and queued payloads may be reused or
// pooled.
//
// Not safe for concurrent use: a FrameWriter has one owner, or sits
// behind a ConnWriter's locks. The zero value is a FrameWriter with no
// writer of its own, flushed with FlushTo.
type FrameWriter struct {
	w io.Writer

	heads []byte   // concatenated head encodings of queued frames
	ends  []int    // heads end offset per queued frame
	datas [][]byte // payload reference per queued frame (may be nil)

	// vecs is the reused vector backing; wvec is the consumable copy
	// handed to WriteTo/WriteBuffers (both mutate their receiver, so
	// flushing through a separate header preserves vecs' backing for
	// the next batch).
	vecs net.Buffers
	wvec net.Buffers

	buffered int // total queued bytes, heads + payloads
}

// NewFrameWriter returns a FrameWriter batching onto w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Queue encodes m's frame head and records its payload for the next
// Flush. m.Data is referenced, not copied — see the aliasing note on
// FrameWriter. Queue performs no I/O and, in steady state, no
// allocation.
//
//rmpvet:hotpath
func (fw *FrameWriter) Queue(m *Msg) error {
	heads, err := AppendFrameHead(fw.heads, m)
	if err != nil {
		return err
	}
	fw.buffered += (len(heads) - len(fw.heads)) + len(m.Data)
	fw.heads = heads
	fw.ends = append(fw.ends, len(heads))
	fw.datas = append(fw.datas, m.Data)
	return nil
}

// Frames reports how many frames are queued and unflushed.
func (fw *FrameWriter) Frames() int { return len(fw.ends) }

// Buffered reports the total queued bytes (heads plus payloads).
func (fw *FrameWriter) Buffered() int { return fw.buffered }

// Flush writes every queued frame to the writer given to
// NewFrameWriter; see FlushTo.
//
//rmpvet:hotpath
func (fw *FrameWriter) Flush() error { return fw.FlushTo(fw.w) }

// FlushTo writes every queued frame to w in one vectored write and
// drops all payload references. A short write or transport error is
// returned as-is; the batch is discarded either way (the mux treats
// any write error as fatal to the conn). Flushing an empty writer is a
// no-op.
//
//rmpvet:hotpath
func (fw *FrameWriter) FlushTo(w io.Writer) error {
	if len(fw.ends) == 0 {
		return nil
	}
	fw.vecs = fw.vecs[:0]
	start := 0
	for i, end := range fw.ends {
		fw.vecs = append(fw.vecs, fw.heads[start:end])
		start = end
		if d := fw.datas[i]; len(d) > 0 {
			fw.vecs = append(fw.vecs, d)
		}
	}
	// wvec shares vecs' backing; WriteTo/WriteBuffers consume wvec,
	// nil-ing written elements in the shared backing as they go.
	fw.wvec = fw.vecs
	var err error
	if bw, ok := w.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(&fw.wvec)
	} else {
		_, err = fw.wvec.WriteTo(w)
	}
	// Drop every payload reference, including any an error path left
	// unconsumed, so pooled page buffers are not retained past Flush.
	for i := range fw.vecs {
		fw.vecs[i] = nil
	}
	fw.vecs = fw.vecs[:0]
	fw.wvec = nil
	for i := range fw.datas {
		fw.datas[i] = nil
	}
	fw.heads = fw.heads[:0]
	fw.ends = fw.ends[:0]
	fw.datas = fw.datas[:0]
	fw.buffered = 0
	return err
}
