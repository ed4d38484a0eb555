package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rmp/internal/page"
)

func roundTrip(t *testing.T, m *Msg) *Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodePooled(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripEmpty(t *testing.T) {
	m := &Msg{Type: TLoad}
	got := roundTrip(t, m)
	if got.Type != TLoad || got.Key != 0 || len(got.Data) != 0 {
		t.Fatalf("round trip mangled empty message: %+v", got)
	}
}

func TestRoundTripFull(t *testing.T) {
	data := page.NewBuf()
	data.Fill(5)
	m := &Msg{
		Type:      TXorWrite,
		Flags:     FlagPressure,
		Status:    StatusOK,
		Key:       0xDEADBEEF,
		N:         77,
		ParityKey: 0xCAFE,
		Host:      "parity.example:7000",
		Keys:      []uint64{1, 2, 3, 1 << 60},
		Data:      data,
	}
	m.WithChecksum()
	got := roundTrip(t, m)
	if got.Type != m.Type || got.Flags != m.Flags || got.Key != m.Key ||
		got.N != m.N || got.ParityKey != m.ParityKey || got.Host != m.Host {
		t.Fatalf("fixed fields mangled: %+v", got)
	}
	if !reflect.DeepEqual(got.Keys, m.Keys) {
		t.Fatalf("keys mangled: %v", got.Keys)
	}
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatal("data mangled")
	}
	if err := got.VerifyData(); err != nil {
		t.Fatalf("VerifyData: %v", err)
	}
}

func TestVerifyDataDetectsCorruption(t *testing.T) {
	data := page.NewBuf()
	data.Fill(9)
	m := (&Msg{Type: TPageOut, Key: 1, Data: data}).WithChecksum()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a data byte
	got, err := DecodePooled(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyData(); err == nil {
		t.Fatal("VerifyData accepted corrupted page")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	raw := make([]byte, 12)
	if _, err := DecodePooled(bytes.NewReader(raw)); err != ErrBadMagic {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Msg{Type: anyType()}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := DecodePooled(bytes.NewReader(raw)); err != ErrBadVersion {
		t.Fatalf("got %v, want ErrBadVersion", err)
	}
}

// anyType returns an arbitrary valid type for framing tests.
func anyType() Type { return TLoad }

func TestDecodeOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Msg{Type: TLoad}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.BigEndian.PutUint32(raw[8:], MaxPayload+1)
	if _, err := DecodePooled(bytes.NewReader(raw)); err != ErrTooLarge {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	m := &Msg{Type: TPageOut, Data: make([]byte, MaxPayload)}
	if err := Encode(io.Discard, m); err != ErrTooLarge {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	m := &Msg{Type: TFree, Keys: []uint64{1, 2, 3}}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Claim more keys than the payload holds.
	// keys count sits after fixed 24 bytes + 2-byte host len (host empty).
	binary.BigEndian.PutUint32(raw[12+26:], 1000)
	if _, err := DecodePooled(bytes.NewReader(raw)); err != ErrTruncated {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func TestDecodeShortRead(t *testing.T) {
	m := &Msg{Type: TLoad}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:8] // cut mid-header
	if _, err := DecodePooled(bytes.NewReader(raw)); err == nil {
		t.Fatal("Decode accepted short frame")
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK.Err() != nil")
	}
	err := StatusNoSpace.Err()
	if err == nil || !strings.Contains(err.Error(), "NO_SPACE") {
		t.Fatalf("StatusNoSpace.Err() = %v", err)
	}
}

func TestTypeAck(t *testing.T) {
	pairs := []Type{THello, TAlloc, TPageOut, TPageIn, TFree, TLoad, TXorWrite, TXorDelta, TBye}
	for _, req := range pairs {
		ack := req.Ack()
		if !strings.HasSuffix(ack.String(), "_ACK") {
			t.Errorf("%v.Ack() = %v, not an ack", req, ack)
		}
		if !strings.HasPrefix(ack.String(), strings.TrimSuffix(req.String(), "")) {
			t.Errorf("%v.Ack() = %v, mismatched pair", req, ack)
		}
	}
}

func TestTypeStringUnknown(t *testing.T) {
	if got := Type(200).String(); got != "Type(200)" {
		t.Errorf("unknown type string = %q", got)
	}
	if got := Status(200).String(); got != "Status(200)" {
		t.Errorf("unknown status string = %q", got)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(key uint64, n uint32, pkey uint64, host string, keys []uint64, data []byte) bool {
		if len(host) > 1024 {
			host = host[:1024]
		}
		if len(keys) > 64 {
			keys = keys[:64]
		}
		if len(data) > page.Size {
			data = data[:page.Size]
		}
		m := &Msg{Type: TPageOut, Key: key, N: n, ParityKey: pkey, Host: host, Keys: keys, Data: data}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return false
		}
		got, err := DecodePooled(&buf)
		if err != nil {
			return false
		}
		if got.Key != key || got.N != n || got.ParityKey != pkey || got.Host != host {
			return false
		}
		if len(keys) == 0 && len(got.Keys) != 0 {
			return false
		}
		if len(keys) > 0 && !reflect.DeepEqual(got.Keys, keys) {
			return false
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := Encode(&buf, &Msg{Type: TPageIn, Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := DecodePooled(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Key != uint64(i) {
			t.Fatalf("frame %d decoded key %d", i, m.Key)
		}
	}
}

func BenchmarkEncodePageOut(b *testing.B) {
	data := page.NewBuf()
	data.Fill(1)
	m := (&Msg{Type: TPageOut, Key: 42, Data: data}).WithChecksum()
	b.SetBytes(page.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePageOut(b *testing.B) {
	data := page.NewBuf()
	data.Fill(1)
	m := (&Msg{Type: TPageOut, Key: 42, Data: data}).WithChecksum()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(page.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePooled(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMembershipTypes: the membership additions keep the request/ack
// pairing convention and survive the codec.
func TestMembershipTypes(t *testing.T) {
	pairs := map[Type]Type{TPing: TPong, TJoin: TJoinAck, TDrain: TDrainAck}
	for req, ack := range pairs {
		if req.Ack() != ack {
			t.Fatalf("%v.Ack() = %v, want %v", req, req.Ack(), ack)
		}
		if strings.HasPrefix(req.String(), "Type(") || strings.HasPrefix(ack.String(), "Type(") {
			t.Fatalf("missing type name for %d/%d", req, ack)
		}
	}
	got := roundTrip(t, &Msg{Type: TJoin, Host: "10.1.2.3:7077"})
	if got.Type != TJoin || got.Host != "10.1.2.3:7077" {
		t.Fatalf("JOIN mangled: %+v", got)
	}
	got = roundTrip(t, &Msg{Type: TPong, N: 42, Flags: FlagDrain,
		Data: []byte(`{"peers":["a:1","b:2"]}`)})
	if got.N != 42 || got.Flags&FlagDrain == 0 || len(got.Data) == 0 {
		t.Fatalf("PONG mangled: %+v", got)
	}
}

// TestV2RoundTrip: a v2 frame carries its request id through the
// codec, and the decoder records the version it read.
func TestV2RoundTrip(t *testing.T) {
	data := page.NewBuf()
	data.Fill(7)
	m := (&Msg{Version: Version2, ID: 0xDEADBEEF, Type: TPageOut, Key: 42, Data: data}).WithChecksum()
	got := roundTrip(t, m)
	if got.Version != Version2 || got.ID != 0xDEADBEEF {
		t.Fatalf("v2 tag mangled: version=%d id=%#x", got.Version, got.ID)
	}
	if got.Type != TPageOut || got.Key != 42 || !bytes.Equal(got.Data, data) {
		t.Fatalf("v2 payload mangled: %+v", got)
	}
	// Re-encoding a decoded v2 frame must produce identical bytes.
	var a, b bytes.Buffer
	if err := Encode(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-encode of decoded v2 frame differs")
	}
}

// TestV1FramesCarryNoID: the v1 encoding is byte-identical to what it
// was before v2 existed — a zero-valued Version field changes nothing.
func TestV1FramesCarryNoID(t *testing.T) {
	var v0, v1 bytes.Buffer
	if err := Encode(&v0, &Msg{Type: TLoad, ID: 99}); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&v1, &Msg{Version: Version, Type: TLoad}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v0.Bytes(), v1.Bytes()) {
		t.Fatal("v1 encoding depends on ID or explicit Version")
	}
	got, err := DecodePooled(bytes.NewReader(v0.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.ID != 0 {
		t.Fatalf("v1 frame decoded as version=%d id=%d", got.Version, got.ID)
	}
}

// TestMixedVersionStream: v1 and v2 frames interleaved on one byte
// stream decode independently — exactly what a HELLO (v1) followed by
// tagged traffic (v2) looks like.
func TestMixedVersionStream(t *testing.T) {
	var buf bytes.Buffer
	frames := []*Msg{
		{Type: THello, Host: "c", Flags: FlagV2},
		{Version: Version2, ID: 1, Type: TPageIn, Key: 10},
		{Version: Version2, ID: 2, Type: TPageIn, Key: 20},
		{Type: TLoad},
		{Version: Version2, ID: 3, Type: TFree, Keys: []uint64{1, 2}},
	}
	for _, m := range frames {
		if err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := DecodePooled(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wantVer := want.Version
		if wantVer == 0 {
			wantVer = Version
		}
		if got.Type != want.Type || got.Version != wantVer || got.ID != want.ID {
			t.Fatalf("frame %d: got type=%v ver=%d id=%d, want type=%v ver=%d id=%d",
				i, got.Type, got.Version, got.ID, want.Type, wantVer, want.ID)
		}
	}
}

// TestV2TruncatedID: a v2 header followed by a cut-off id field is a
// clean read error, not a panic or a misparse.
func TestV2TruncatedID(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Msg{Version: Version2, ID: 7, Type: TLoad}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := headerLen; cut < headerLen+idLen; cut++ {
		if _, err := DecodePooled(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("decode of frame cut at %d bytes succeeded", cut)
		}
	}
}
