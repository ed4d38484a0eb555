package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"rmp/internal/page"
)

// decodeRef is the reference decoder the fuzz targets hold
// DecodePooled and FrameReader to: one frame from r, untagged or tagged, into a fresh
// payload buffer and a fresh Msg — ordinary garbage-collected memory,
// nothing pooled. It was the package's original decoder (wire.Decode);
// no production code needs it any more.
func decodeRef(r io.Reader) (*Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[2] != Version && hdr[2] != Version2 {
		return nil, ErrBadVersion
	}
	plen := binary.BigEndian.Uint32(hdr[8:])
	if plen > MaxPayload {
		return nil, ErrTooLarge
	}
	var id uint32
	if hdr[2] == Version2 {
		var idb [idLen]byte
		if _, err := io.ReadFull(r, idb[:]); err != nil {
			return nil, err
		}
		id = binary.BigEndian.Uint32(idb[:])
	}
	p := make([]byte, plen)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}

	m := &Msg{
		Type:    Type(hdr[3]),
		Flags:   hdr[4],
		Status:  Status(hdr[5]),
		Version: hdr[2],
		ID:      id,
	}
	if err := m.parsePayload(p, ""); err != nil {
		return nil, err
	}
	return m, nil
}

// FuzzDecode hammers the frame decoder with arbitrary bytes: it must
// never panic or over-allocate, only return errors.
func FuzzDecode(f *testing.F) {
	// Seed with valid frames of each interesting shape.
	seed := func(m *Msg) {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(&Msg{Type: THello, Host: "client", Data: []byte("token")})
	seed(&Msg{Type: TLoad})
	seed(&Msg{Type: TFree, Keys: []uint64{1, 2, 3}})
	data := page.NewBuf()
	data.Fill(1)
	seed((&Msg{Type: TPageOut, Key: 9, Data: data}).WithChecksum())
	// Membership messages: heartbeat, peer announce, graceful drain.
	seed(&Msg{Type: TPing})
	seed(&Msg{Type: TPong, N: 17, Flags: FlagDrain, Data: []byte(`{"peers":["127.0.0.1:7078"]}`)})
	seed(&Msg{Type: TJoin, Host: "10.0.0.9:7077"})
	seed(&Msg{Type: TJoinAck, N: 2})
	seed(&Msg{Type: TDrain})
	seed(&Msg{Type: TDrainAck, Flags: FlagDrain})
	// Tagged v2 frames: negotiation hello, a tagged request, a tagged
	// ack, and the id extremes.
	seed(&Msg{Type: THello, Flags: FlagV2, Host: "client", Data: []byte("token")})
	seed(&Msg{Version: Version2, ID: 1, Type: TPageIn, Key: 7})
	seed(&Msg{Version: Version2, ID: 1, Type: TPageInAck, Key: 7})
	seed(&Msg{Version: Version2, ID: 0, Type: TLoad})
	seed(&Msg{Version: Version2, ID: ^uint32(0), Type: TPing})
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x4D, 1, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	// v2 header with the id field truncated.
	f.Add([]byte{0x52, 0x4D, 2, uint8(TLoad), 0, 0, 0, 0, 0, 0, 0, 34, 0, 0})

	// Adversarial corpus: the frames a broken or hostile peer actually
	// produces. Each must decode to an error, never a panic or an
	// unbounded allocation.
	//
	// Truncated headers — every prefix of a valid frame shorter than
	// the 12-byte header.
	var whole bytes.Buffer
	if err := Encode(&whole, &Msg{Type: TLoad}); err != nil {
		f.Fatal(err)
	}
	for i := 1; i < headerLen; i++ {
		f.Add(whole.Bytes()[:i])
	}
	// Header intact, payload cut off mid-field.
	f.Add(whole.Bytes()[:headerLen+3])
	// Declared payload of exactly MaxPayload+1: must be refused before
	// any allocation of that size.
	over := make([]byte, headerLen)
	over[0], over[1], over[2] = 0x52, 0x4D, Version
	over[3] = uint8(TPageOut)
	binary.BigEndian.PutUint32(over[8:], uint32(MaxPayload+1))
	f.Add(over)
	// Unknown opcode with a well-formed empty payload: framing accepts
	// it (forward compatibility); the dispatch layer must answer
	// StatusBadRequest rather than hang.
	var unk bytes.Buffer
	if err := Encode(&unk, &Msg{Type: Type(0xEE)}); err != nil {
		f.Fatal(err)
	}
	f.Add(unk.Bytes())
	// Bad magic and bad version ahead of a valid remainder.
	bm := append([]byte(nil), whole.Bytes()...)
	bm[0] = 'X'
	f.Add(bm)
	bv := append([]byte(nil), whole.Bytes()...)
	bv[2] = Version + 1
	f.Add(bv)

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeRef(bytes.NewReader(raw))
		pm, perr := DecodePooled(bytes.NewReader(raw))
		// The pooled decoder must agree with the plain one bit for bit:
		// same error verdict, same message.
		if (err == nil) != (perr == nil) {
			t.Fatalf("reference err=%v but DecodePooled err=%v", err, perr)
		}
		if err != nil {
			return
		}
		if !sameMsg(m, pm) {
			t.Fatalf("pooled decode diverges:\n plain  %+v\n pooled %+v", m, pm)
		}
		Recycle(pm)
		// A successfully decoded frame must re-encode.
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil && err != ErrTooLarge {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		// Buffer reuse must not leak bytes across frames: decode the
		// re-encoded frame through the pool again (likely reusing the
		// buffer just recycled) and require the identical message.
		pm2, err := DecodePooled(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("pooled re-decode: %v", err)
		}
		if !sameMsg(m, pm2) {
			t.Fatalf("pooled buffer reuse leaked bytes across frames:\n want %+v\n got  %+v", m, pm2)
		}
		Recycle(pm2)
	})
}

// sameMsg compares every wire-visible field of two decoded messages.
func sameMsg(a, b *Msg) bool {
	if a.Type != b.Type || a.Flags != b.Flags || a.Status != b.Status ||
		a.Version != b.Version || a.ID != b.ID || a.Key != b.Key ||
		a.N != b.N || a.Checksum != b.Checksum || a.ParityKey != b.ParityKey ||
		a.Host != b.Host || len(a.Keys) != len(b.Keys) || !bytes.Equal(a.Data, b.Data) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
}

// FuzzRoundTrip: any encodable message decodes to itself, in both
// frame versions.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(5), uint8(0), uint64(1), uint32(2), uint64(3), "host", []byte("data"), false, uint32(0))
	f.Add(uint8(7), uint8(FlagV2), uint64(9), uint32(1), uint64(0), "", []byte(nil), true, uint32(12345))
	f.Fuzz(func(t *testing.T, typ, flags uint8, key uint64, n uint32, pkey uint64, host string, data []byte, v2 bool, id uint32) {
		if len(host) > 2048 || len(data) > page.Size {
			return
		}
		m := &Msg{
			Type: Type(typ), Flags: flags, Key: key, N: n,
			ParityKey: pkey, Host: host, Data: data,
		}
		if v2 {
			m.Version = Version2
			m.ID = id
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return
		}
		got, err := DecodePooled(&buf)
		if err != nil {
			t.Fatalf("decode of encoded frame: %v", err)
		}
		if got.Type != m.Type || got.Flags != m.Flags || got.Key != m.Key ||
			got.N != m.N || got.ParityKey != m.ParityKey || got.Host != m.Host ||
			!bytes.Equal(got.Data, m.Data) {
			t.Fatalf("round trip mangled message: %+v vs %+v", got, m)
		}
		if v2 && (got.Version != Version2 || got.ID != id) {
			t.Fatalf("v2 tag mangled: version=%d id=%d, want id=%d", got.Version, got.ID, id)
		}
		if !v2 && got.ID != 0 {
			t.Fatalf("v1 frame grew an id: %d", got.ID)
		}
	})
}

// FuzzStreamDemux models the client's reader goroutine against an
// arbitrary byte stream: decode frames until the stream breaks,
// resolving each tagged ack against a pending-request table exactly
// the way the mux does. Duplicate ids, unknown ids, ids reused after
// a timeout, and v1/v2 frames interleaved on one stream must all be
// absorbed — dropped or matched, never a panic, a hang, or a misparse
// of a later frame.
func FuzzStreamDemux(f *testing.F) {
	stream := func(ms ...*Msg) []byte {
		var buf bytes.Buffer
		for _, m := range ms {
			if err := Encode(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	v2 := func(id uint32, t Type) *Msg { return &Msg{Version: Version2, ID: id, Type: t} }
	// In-order tagged exchange.
	f.Add(stream(v2(1, TPageInAck), v2(2, TPageOutAck)))
	// Duplicate id: the second ack with id 1 must be discarded.
	f.Add(stream(v2(1, TPageInAck), v2(1, TPageInAck)))
	// Unknown id: nothing pending under 99.
	f.Add(stream(v2(99, TPageOutAck)))
	// Id reuse after timeout: a late ack for a timed-out id arrives
	// after the id was reused — the demux matches the newer request.
	f.Add(stream(v2(3, TPageInAck), v2(3, TPageInAck), v2(3, TPageOutAck)))
	// v1 and v2 frames mixed on one stream (negotiation boundary).
	f.Add(stream(&Msg{Type: THelloAck, Flags: FlagV2, N: 8}, v2(1, TLoadAck), &Msg{Type: TLoadAck}))
	// Tagged frame followed by garbage.
	f.Add(append(stream(v2(7, TFreeAck)), 0xFF, 0x00, 0xFF))

	f.Fuzz(func(t *testing.T, raw []byte) {
		pending := map[uint32]bool{1: true, 2: true, 3: true}
		// The mux read loop decodes through one FrameReader: run it on
		// the stream, with the plain decoder shadowing it on an identical
		// reader. Recycling between frames means every iteration likely
		// reuses the previous frame's buffer, and the reader carries its
		// read-ahead from frame to frame — any cross-frame byte leak
		// shows up as a divergence.
		fr := NewFrameReader(bytes.NewReader(raw))
		defer fr.Release()
		shadow := bytes.NewReader(raw)
		for i := 0; i < 1024; i++ {
			m, err := fr.Next()
			sm, serr := decodeRef(shadow)
			if (err == nil) != (serr == nil) {
				t.Fatalf("frame %d: pooled err=%v plain err=%v", i, err, serr)
			}
			if err != nil {
				return // stream broken: the mux fails the conn here
			}
			if !sameMsg(m, sm) {
				t.Fatalf("frame %d: pooled decode diverges (buffer reuse leak?)\n plain  %+v\n pooled %+v", i, sm, m)
			}
			if m.Version == Version2 {
				// Demux: a pending id is resolved once; anything else
				// (unknown, duplicate, stale reuse) is dropped.
				if pending[m.ID] {
					delete(pending, m.ID)
				}
			}
			// Every accepted frame must re-encode.
			var buf bytes.Buffer
			if err := Encode(&buf, m); err != nil && err != ErrTooLarge {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
			Recycle(m)
		}
	})
}
