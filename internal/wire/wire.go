// Package wire implements the binary protocol spoken between the RMP
// client (the pager) and the remote memory servers.
//
// The protocol is request/response over a byte stream (TCP in
// production, an in-memory transport in tests), with many requests in
// flight per connection: every session frame carries a request id and
// an ack echoes the id of the request it answers. Every message is one
// frame:
//
//	offset  size  field
//	0       2     magic 0x524D ("RM")
//	2       1     framing: 2 = tagged, 1 = untagged (handshake only)
//	3       1     message type
//	4       1     flags
//	5       1     status
//	6       2     reserved (zero)
//	8       4     payload length (bytes following header and id)
//	12      4     request id (tagged frames only)
//
// A session opens with two untagged frames — a HELLO carrying FlagV2
// and the HELLO_ACK echoing it — and every frame after them is tagged.
// The payload is a fixed field block followed by variable sections:
//
//	Key(8) N(4) Checksum(4) ParityKey(8)
//	hostLen(2) host bytes
//	nkeys(4) keys (8 each)
//	dataLen(4) data bytes
//
// Servers are deliberately policy-agnostic: they store opaque
// (key -> page) pairs. The paper makes the same point — "a parity
// server is by no means different than a memory server" (§3.2). All
// placement, mirroring and parity-group bookkeeping lives in the
// client; the one server-side extra is XORWRITE, used by the basic
// parity policy, where the server computes old XOR new and forwards
// the delta to the parity server itself (§2.2).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"rmp/internal/page"
)

// Protocol constants.
const (
	Magic = 0x524D // "RM"
	// Version marks an untagged frame: the framing of the two
	// handshake frames, HELLO and HELLO_ACK.
	Version = 1
	// Version2 marks a tagged frame: a 4-byte request id follows the
	// fixed header, so many requests can be in flight on one
	// connection and a late ack is matched (or discarded) by id
	// instead of by arrival order. The payload encoding is the same.
	// Every frame of a session after the handshake is tagged.
	Version2 = 2

	headerLen = 12
	// idLen is the extra request-id field a tagged frame carries
	// between the header and the payload.
	idLen = 4

	// MaxPayload bounds a frame so a corrupt or hostile peer cannot
	// make us allocate unbounded memory. Large enough for a page plus
	// every fixed field and a long host name.
	MaxPayload = page.Size + 4096
)

// A whole frame — header, request id, maximum payload — must fit in
// one frame-class pool buffer, so a FrameReader can hold an entire
// frame in pooled memory. Compile-time assertion: the array length
// below is negative (a compile error) if the invariant breaks.
var _ [page.FrameClass - (headerLen + idLen + MaxPayload)]struct{}

// Type enumerates message types. Requests have odd values' acks
// immediately following for readability in traces.
type Type uint8

const (
	THello Type = iota + 1
	THelloAck
	TAlloc
	TAllocAck
	TPageOut
	TPageOutAck
	TPageIn
	TPageInAck
	TFree
	TFreeAck
	TLoad
	TLoadAck
	TXorWrite
	TXorWriteAck
	TXorDelta
	TXorDeltaAck
	TBye
	TByeAck
	TStat
	TStatAck
	// TPing/TPong is the membership heartbeat: a lightweight liveness
	// probe that bypasses the emulated page-service delays. The PONG
	// carries the server's free-page count in N, the drain advisory in
	// FlagDrain, and (when non-empty) the server's announced-peer list
	// as a JSON PongInfo in Data.
	TPing
	TPong
	// TJoin announces a server address (Host) to the receiving server;
	// clients learn announced peers from PONGs and join them. Sent by
	// a starting rmemd (-join) or by an operator via rmpctl.
	TJoin
	TJoinAck
	// TDrain asks the server to leave gracefully: it stops granting
	// swap space and stamps FlagDrain on every ack, advising clients
	// to migrate their pages out; the daemon exits once empty.
	TDrain
	TDrainAck
)

var typeNames = map[Type]string{
	THello: "HELLO", THelloAck: "HELLO_ACK",
	TAlloc: "ALLOC", TAllocAck: "ALLOC_ACK",
	TPageOut: "PAGEOUT", TPageOutAck: "PAGEOUT_ACK",
	TPageIn: "PAGEIN", TPageInAck: "PAGEIN_ACK",
	TFree: "FREE", TFreeAck: "FREE_ACK",
	TLoad: "LOAD", TLoadAck: "LOAD_ACK",
	TXorWrite: "XORWRITE", TXorWriteAck: "XORWRITE_ACK",
	TXorDelta: "XORDELTA", TXorDeltaAck: "XORDELTA_ACK",
	TBye: "BYE", TByeAck: "BYE_ACK",
	TStat: "STAT", TStatAck: "STAT_ACK",
	TPing: "PING", TPong: "PONG",
	TJoin: "JOIN", TJoinAck: "JOIN_ACK",
	TDrain: "DRAIN", TDrainAck: "DRAIN_ACK",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Ack returns the acknowledgement type for a request type.
func (t Type) Ack() Type { return t + 1 }

// Status is the server's verdict on a request.
type Status uint8

const (
	StatusOK Status = iota
	// StatusNoSpace: swap-space allocation denied — the server is out
	// of donatable memory (paper §2.1: "When a server runs out of
	// memory, it denies further swap space allocation requests").
	StatusNoSpace
	// StatusNotFound: pagein or free of a key the server doesn't hold.
	StatusNotFound
	// StatusBadChecksum: page data failed CRC verification.
	StatusBadChecksum
	// StatusDenied: the client is not authorized (paper §3.1 restricts
	// the device to the superuser and privileged ports; we carry an
	// auth token in HELLO instead).
	StatusDenied
	// StatusInternal: internal server error; detail in the data section.
	StatusInternal
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNoSpace:
		return "NO_SPACE"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBadChecksum:
		return "BAD_CHECKSUM"
	case StatusDenied:
		return "DENIED"
	case StatusInternal:
		return "INTERNAL"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Err converts a non-OK status into an error, nil for StatusOK.
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError wraps a non-OK Status as a Go error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "wire: server returned " + e.Status.String() }

// Frame flags.
const (
	// FlagPressure is set by a server on any ack when native
	// memory-demanding processes have started on its host. It is the
	// paper's "note ... advising it to send no more pages to this
	// server" (§2.1). The client reacts by migrating pages away.
	FlagPressure = 1 << 0
	// FlagDrain is set by a server on every ack while it is draining
	// (graceful leave): clients must migrate all pages off it, stop
	// new placements, and say BYE; the daemon exits once empty.
	FlagDrain = 1 << 1
	// FlagV2 on a HELLO states that the sender speaks tagged frames;
	// on a HELLO_ACK it confirms that the receiver does. It is
	// mandatory on both: a server answers a HELLO without it DENIED,
	// and a client treats an ack without it as a failed dial.
	FlagV2 = 1 << 2
)

// Msg is a decoded protocol message. Unused fields are zero.
type Msg struct {
	Type   Type
	Flags  uint8
	Status Status

	// Version selects the frame encoding: 0 or Version encode an
	// untagged frame, Version2 a tagged one. A FrameReader records the
	// version it actually read, so a decoded frame re-encodes
	// identically.
	Version uint8
	// ID tags a frame. Acks echo the request's id; the client demuxes
	// (or discards late acks) by it. Always zero on untagged frames.
	ID uint32

	// Key addresses one stored page (PAGEOUT/PAGEIN/XORWRITE/XORDELTA).
	Key uint64
	// N is a count: pages requested in ALLOC, granted in ALLOC_ACK,
	// free pages in LOAD_ACK.
	N uint32
	// Checksum is the CRC-32C of Data for page-carrying messages.
	Checksum uint32
	// ParityKey is the key under which the parity server accumulates
	// the delta for an XORWRITE.
	ParityKey uint64
	// Host is the parity server address for XORWRITE, or the client
	// name in HELLO, or the auth token (HELLO uses Data for the token).
	Host string
	// Keys lists pages for FREE.
	Keys []uint64
	// Data is the page payload, or an error detail for StatusError.
	Data []byte

	// payload is the pooled frame buffer backing Data when the message
	// came from a FrameReader; Recycle returns it to the page pool. Nil
	// for messages built by hand and for decoded frames without Data.
	payload []byte
}

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrTooLarge   = errors.New("wire: frame exceeds maximum payload")
	ErrTruncated  = errors.New("wire: truncated payload")
)

// payloadSize computes the encoded payload length for m.
func (m *Msg) payloadSize() int {
	return 8 + 4 + 4 + 8 + // Key, N, Checksum, ParityKey
		2 + len(m.Host) +
		4 + 8*len(m.Keys) +
		4 + len(m.Data)
}

// Encode writes m as one frame to w. The framing follows m.Version:
// zero (the zero value) and Version encode untagged, Version2 encodes
// the tagged form carrying m.ID. Encode allocates a fresh frame buffer
// per call — fine for a handshake; writers on the paging fast path
// hold a scratch buffer and use AppendFrame or a FrameWriter instead.
func Encode(w io.Writer, m *Msg) error {
	buf, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Hello performs the client side of the session handshake on rw: it
// sends an untagged HELLO as name carrying token and FlagV2, and reads
// the HELLO_ACK, which must be OK and echo the flag — anything else is
// an error. The accepted ack is returned for its N and advisory flags;
// the caller Recycles it. Every later frame on rw must be tagged.
func Hello(rw io.ReadWriter, name, token string) (*Msg, error) {
	if err := Encode(rw, &Msg{Type: THello, Flags: FlagV2, Host: name, Data: []byte(token)}); err != nil {
		return nil, err
	}
	ack, err := DecodePooled(rw)
	if err != nil {
		return nil, err
	}
	switch {
	case ack.Type != THelloAck:
		err = fmt.Errorf("wire: got %v in reply to HELLO", ack.Type)
	case ack.Status != StatusOK:
		err = ack.Status.Err()
	case ack.Flags&FlagV2 == 0:
		err = errors.New("wire: peer does not speak tagged framing")
	}
	if err != nil {
		Recycle(ack)
		return nil, err
	}
	return ack, nil
}

// AppendFrame appends m, encoded as one frame, to dst and returns the
// extended slice. With a caller-reused scratch buffer it performs no
// heap allocation once the buffer has grown to the working frame
// size, which is what the mux write loop batches through: one page
// out must not cost an allocation per 4 KB frame. Growth uses
// amortized append doubling rather than make so the function body
// stays allocation-free under the compiler's escape analysis.
//
//rmpvet:hotpath
func AppendFrame(dst []byte, m *Msg) ([]byte, error) {
	dst, err := AppendFrameHead(dst, m)
	if err != nil {
		return dst, err
	}
	return append(dst, m.Data...), nil
}

// AppendFrameHead appends everything of m's frame except the final
// data bytes: header, request id, fixed fields, host, keys, and the
// 4-byte data length. The frame on the wire is AppendFrameHead's bytes
// immediately followed by m.Data — which is what FrameWriter exploits
// to ship header and payload through one writev without copying the
// payload into scratch. The encoded payload length in the header
// includes the data, so a head+data pair is indistinguishable from an
// AppendFrame encoding.
//
//rmpvet:hotpath
func AppendFrameHead(dst []byte, m *Msg) ([]byte, error) {
	plen := m.payloadSize()
	if plen > MaxPayload {
		return dst, ErrTooLarge
	}
	ver, hlen := uint8(Version), headerLen
	if m.Version == Version2 {
		ver, hlen = Version2, headerLen+idLen
	}
	headLen := hlen + plen - len(m.Data)
	start := len(dst)
	for cap(dst)-start < headLen {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:start+headLen]
	buf := dst[start:]
	binary.BigEndian.PutUint16(buf[0:], Magic)
	buf[2] = ver
	buf[3] = uint8(m.Type)
	buf[4] = m.Flags
	buf[5] = uint8(m.Status)
	buf[6], buf[7] = 0, 0
	binary.BigEndian.PutUint32(buf[8:], uint32(plen))
	if ver == Version2 {
		binary.BigEndian.PutUint32(buf[headerLen:], m.ID)
	}

	p := buf[hlen:]
	binary.BigEndian.PutUint64(p[0:], m.Key)
	binary.BigEndian.PutUint32(p[8:], m.N)
	binary.BigEndian.PutUint32(p[12:], m.Checksum)
	binary.BigEndian.PutUint64(p[16:], m.ParityKey)
	off := 24
	binary.BigEndian.PutUint16(p[off:], uint16(len(m.Host)))
	off += 2
	off += copy(p[off:], m.Host)
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.Keys)))
	off += 4
	for _, k := range m.Keys {
		binary.BigEndian.PutUint64(p[off:], k)
		off += 8
	}
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.Data)))

	return dst, nil
}

// msgPool recycles Msg structs through FrameReader.Next, GetMsg and
// Recycle. Like the page pools, its New lives at package level so the
// escapegate attributes the inherent allocation here, not to the
// hotpath decode.
var msgPool = sync.Pool{New: newPooledMsg}

func newPooledMsg() any { return new(Msg) }

// GetMsg returns a zeroed Msg from the pool, for a sender that will
// Recycle it once the frame has left (the server's acks).
//
//rmpvet:hotpath
func GetMsg() *Msg { return msgPool.Get().(*Msg) }

// Recycle returns a message obtained from a FrameReader or GetMsg (and
// its pooled payload buffer) to the pools. It must be called exactly once
// per message, after the caller is completely done with every slice
// the Msg hands out — Data in particular. Messages built by hand may
// also be Recycled (their struct is pooled, the GC keeps their
// buffers), which lets shared cleanup paths recycle unconditionally.
//
//rmpvet:hotpath
func Recycle(m *Msg) {
	if m == nil {
		return
	}
	buf := m.payload
	*m = Msg{}
	msgPool.Put(m)
	page.Put(buf)
}

// parsePayload decodes the payload section p into m. A Host whose
// bytes equal prevHost is prevHost, not a new string. The Data slice
// is left uncapped (its capacity runs to the end of the pooled buffer
// rather than exactly len) so an erroneous page.Put of a received Data
// slice routes to the discard counter instead of poisoning the page
// pool with interior memory.
//
//rmpvet:hotpath
func (m *Msg) parsePayload(p []byte, prevHost string) error {
	if len(p) < 24+2 {
		return ErrTruncated
	}
	m.Key = binary.BigEndian.Uint64(p[0:])
	m.N = binary.BigEndian.Uint32(p[8:])
	m.Checksum = binary.BigEndian.Uint32(p[12:])
	m.ParityKey = binary.BigEndian.Uint64(p[16:])
	off := 24
	hlen := int(binary.BigEndian.Uint16(p[off:]))
	off += 2
	if off+hlen+4 > len(p) {
		return ErrTruncated
	}
	m.Host = prevHost
	if host := p[off : off+hlen]; string(host) != prevHost { // compared in place, no allocation
		m.Host = string(host)
	}
	off += hlen
	nkeys := int(binary.BigEndian.Uint32(p[off:]))
	off += 4
	m.Keys = nil
	if nkeys > 0 {
		if off+8*nkeys+4 > len(p) {
			return ErrTruncated
		}
		m.Keys = make([]uint64, nkeys)
		for i := range m.Keys {
			m.Keys[i] = binary.BigEndian.Uint64(p[off:])
			off += 8
		}
	}
	if off+4 > len(p) {
		return ErrTruncated
	}
	dlen := int(binary.BigEndian.Uint32(p[off:]))
	off += 4
	if off+dlen > len(p) {
		return ErrTruncated
	}
	m.Data = nil
	if dlen > 0 {
		m.Data = p[off : off+dlen]
	}
	return nil
}

// VerifyData checks the message checksum against its data; messages
// that carry no data always verify.
func (m *Msg) VerifyData() error {
	if len(m.Data) == 0 {
		return nil
	}
	if page.Buf(m.Data).Checksum() != m.Checksum {
		return &StatusError{Status: StatusBadChecksum}
	}
	return nil
}

// StatInfo is the server-state snapshot carried (as JSON in Data) by
// a STAT_ACK. It powers rmpctl's operator view and the experiments'
// memory accounting.
type StatInfo struct {
	Name         string   `json:"name"`
	StoredPages  int      `json:"stored_pages"`
	FreePages    int      `json:"free_pages"`
	InOverflow   bool     `json:"in_overflow"`
	Pressure     bool     `json:"pressure"`
	Clients      int      `json:"clients"`
	Puts         uint64   `json:"puts"`
	Gets         uint64   `json:"gets"`
	Deletes      uint64   `json:"deletes"`
	XorWrites    uint64   `json:"xor_writes"`
	Misses       uint64   `json:"misses"`
	DeniedAllocs uint64   `json:"denied_allocs"`
	Pings        uint64   `json:"pings,omitempty"`
	Draining     bool     `json:"draining,omitempty"`
	Peers        []string `json:"peers,omitempty"`

	// Tiered-store view (internal/store): where the stored pages live,
	// the current demotion targets, and per-tier activity. Clients use
	// the disk-tier share to weigh "slow remote" against "move away"
	// when a server advises pressure.
	HotPages   int    `json:"hot_pages"`
	ColdPages  int    `json:"cold_pages,omitempty"`
	DiskPages  int    `json:"disk_pages,omitempty"`
	HotTarget  int    `json:"hot_target,omitempty"`
	ColdBytes  int64  `json:"cold_bytes,omitempty"`
	HotHits    uint64 `json:"hot_hits,omitempty"`
	ColdHits   uint64 `json:"cold_hits,omitempty"`
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	Demotions  uint64 `json:"demotions,omitempty"`
	Spills     uint64 `json:"spills,omitempty"`
	Promotions uint64 `json:"promotions,omitempty"`
	LostPages  uint64 `json:"lost_pages,omitempty"`
}

// PongInfo is the optional JSON payload of a PONG: the peer servers
// announced to this server via JOIN. Clients running the membership
// layer dial peers they have not seen before — a new server announces
// itself to any one existing server and the whole cluster learns of
// it through heartbeats.
type PongInfo struct {
	Peers []string `json:"peers,omitempty"`
}

// WithChecksum fills in the checksum for the current Data and returns m.
func (m *Msg) WithChecksum() *Msg {
	if len(m.Data) > 0 {
		m.Checksum = page.Buf(m.Data).Checksum()
	}
	return m
}
