// FrameReader is the read half of the wire codec: it owns one pooled
// frame-class buffer per connection and fills it with as few Read
// calls as the transport allows — on TCP a whole frame, and under
// pipelining the head of the next, arrive in one syscall — then
// decodes in place. There is no second buffer between the socket and
// the Msg: a frame that carries Data takes the buffer with it (Recycle
// returns it to the pool) and whatever was read past its end moves to
// a fresh buffer with one small copy; a frame without Data leaves the
// buffer with the reader, so a stream of bare acks or PAGEIN requests
// touches the pool not at all.
package wire

import (
	"encoding/binary"
	"io"

	"rmp/internal/page"
)

// FrameReader decodes the frames of one byte stream. Not safe for
// concurrent use; each read loop owns one. After Next returns an error
// the stream is unframed and the reader holds nothing; a reader
// abandoned before that must be Released so its buffer goes back to
// the pool.
type FrameReader struct {
	src io.Reader
	// buf is the pooled buffer being filled, nil until the first Next
	// and after an error or Release; buf[r:w] holds the bytes read from
	// src and not yet handed out as a frame.
	buf  []byte
	r, w int
	// exact caps every Read at the end of the current frame, for
	// DecodePooled: a one-shot decode has nowhere to keep read-ahead.
	exact bool
	// host is the last non-empty Host decoded. A frame whose Host bytes
	// repeat it gets this string, not a new one: a stream of XORWRITEs
	// names the same parity server again and again.
	host string
}

// NewFrameReader returns a FrameReader decoding src.
func NewFrameReader(src io.Reader) *FrameReader { return &FrameReader{src: src} }

// Next reads one frame, untagged or tagged, and records which it was
// (and a tagged frame's request id), so a decoded frame re-encodes
// identically. The Msg comes from the Msg pool and Data, when present,
// aliases the pooled buffer the frame was read into, so a steady-state
// read loop performs zero allocations per frame (a frame carrying Keys,
// or a Host other than the previous one, still allocates that field).
//
// Ownership contract: the returned Msg and everything it references —
// in particular Data — belong to the caller until it calls Recycle(m),
// which must happen exactly once and only after every use of the
// frame's bytes is complete. After Recycle the buffer is reused for a
// future frame; a retained Data slice would watch its contents change.
// Callers that need the data to outlive the frame copy it out
// (page.Buf.ClonePooled) before recycling. Dropping a Msg without
// Recycle is safe but leaks the buffer to the garbage collector.
//
// io.EOF means the stream ended between frames; an end inside a frame
// is io.ErrUnexpectedEOF.
//
//rmpvet:hotpath
func (fr *FrameReader) Next() (*Msg, error) {
	if fr.buf == nil {
		fr.buf = page.GetFrame()
	}
	if err := fr.fill(headerLen); err != nil {
		return nil, fr.fail(err)
	}
	hdr := fr.buf[fr.r:]
	if binary.BigEndian.Uint16(hdr[0:]) != Magic {
		return nil, fr.fail(ErrBadMagic)
	}
	if hdr[2] != Version && hdr[2] != Version2 {
		return nil, fr.fail(ErrBadVersion)
	}
	plen := binary.BigEndian.Uint32(hdr[8:])
	if plen > MaxPayload {
		return nil, fr.fail(ErrTooLarge)
	}
	hlen := headerLen
	if hdr[2] == Version2 {
		hlen += idLen
	}
	total := hlen + int(plen)
	if err := fr.fill(total); err != nil {
		return nil, fr.fail(err)
	}
	// fill may have moved the frame to the front of the buffer.
	frame := fr.buf[fr.r : fr.r+total]
	fr.r += total

	m := msgPool.Get().(*Msg)
	m.Type = Type(frame[3])
	m.Flags = frame[4]
	m.Status = Status(frame[5])
	m.Version = frame[2]
	if m.Version == Version2 {
		m.ID = binary.BigEndian.Uint32(frame[headerLen:])
	}
	if err := m.parsePayload(frame[hlen:], fr.host); err != nil {
		Recycle(m)
		return nil, fr.fail(err)
	}
	if m.Host != "" {
		fr.host = m.Host
	}
	switch {
	case m.Data != nil:
		// The frame's bytes leave with the Msg; what was read past them
		// is the head of the next frame and moves to a fresh buffer.
		m.payload = fr.buf
		rest := fr.buf[fr.r:fr.w]
		fr.buf, fr.r, fr.w = nil, 0, 0
		if len(rest) > 0 {
			fr.buf = page.GetFrame()
			fr.w = copy(fr.buf, rest)
		}
	case fr.r == fr.w:
		fr.r, fr.w = 0, 0
	}
	return m, nil
}

// fill reads from src until buf[r:w] holds at least need bytes. The
// frame in progress moves to the front of the buffer first, so the
// rest of it always fits: a frame class holds any whole frame.
//
//rmpvet:hotpath
func (fr *FrameReader) fill(need int) error {
	if fr.w-fr.r >= need {
		return nil
	}
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	for fr.w < need {
		end := len(fr.buf)
		if fr.exact {
			end = need
		}
		n, err := fr.src.Read(fr.buf[fr.w:end])
		fr.w += n
		if err != nil && fr.w < need {
			if err == io.EOF && fr.w > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// fail gives the buffer back and passes err through: after a framing
// or transport error nothing buffered can be trusted.
func (fr *FrameReader) fail(err error) error {
	fr.Release()
	return err
}

// Release returns the reader's buffer, and any read-ahead in it, to
// the pool. The reader may be used again; it starts from src's next
// byte.
func (fr *FrameReader) Release() {
	page.Put(fr.buf)
	fr.buf, fr.r, fr.w = nil, 0, 0
}

// DecodePooled reads exactly one frame from r and nothing past its
// end: the one-shot form of FrameReader.Next, for the handshake frames
// and for tools that hold no reader. Ownership of the Msg is Next's.
func DecodePooled(r io.Reader) (*Msg, error) {
	fr := FrameReader{src: r, exact: true}
	m, err := fr.Next()
	fr.Release()
	return m, err
}
