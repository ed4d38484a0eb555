package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rmp/internal/chaos"
	"rmp/internal/page"
)

// splitmix is the generator every seeded choice in the bench draws
// from: op streams, payload tags, the crash instant.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// payloadTag names one version of one page under one seed; the page's
// bytes are a pure function of it.
func payloadTag(seed uint64, id page.ID, version uint32) uint64 {
	s := splitmix(seed ^ uint64(id)*0xd6e8feb86659fd93 ^ uint64(version)<<40)
	return s.next() | 1 // xorshift below must not start from 0
}

// fillPayload writes the page for tag into buf: the first half is
// pseudorandom, the second a repeated 64-byte pattern, so the server's
// flate cold tier reaches about 2:1 as it would on real data (page.Fill
// is incompressible and would make the cold tier a no-op).
func fillPayload(buf page.Buf, tag uint64) {
	x := tag
	const half = page.Size / 2
	for i := 0; i < half+64; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for n := 64; half+n < page.Size; n *= 2 {
		copy(buf[half+n:], buf[half:half+n])
	}
}

// oracle remembers the last acknowledged version of every page in the
// working set; version 0 means never paged out. Callers own disjoint
// ID ranges, so entries are never shared between goroutines.
type oracle struct {
	seed     uint64
	versions []uint32
	scratch  []page.Buf // one per caller, for regenerating expected bytes
}

func newOracle(seed uint64, pages, callers int) *oracle {
	o := &oracle{seed: seed, versions: make([]uint32, pages)}
	for i := 0; i < callers; i++ {
		o.scratch = append(o.scratch, page.NewBuf())
	}
	return o
}

// next fills buf with the version of id that follows the acknowledged
// one and returns that version; the caller commits it after the ack.
func (o *oracle) next(id page.ID, buf page.Buf) uint32 {
	v := o.versions[id] + 1
	fillPayload(buf, payloadTag(o.seed, id, v))
	return v
}

func (o *oracle) commit(id page.ID, v uint32) { o.versions[id] = v }

// matches reports whether got is byte-for-byte the last acknowledged
// version of id.
func (o *oracle) matches(caller int, id page.ID, got page.Buf) bool {
	want := o.scratch[caller]
	fillPayload(want, payloadTag(o.seed, id, o.versions[id]))
	return bytes.Equal(got, want)
}

// readBack runs chaos.NoLostPage over want (page → tag of its last
// acknowledged version). NoLostPage compares against page.Fill images,
// which neither the bench's compressible payloads nor an application's
// data are; so the read compares the page itself, through matches, and
// on a match hands NoLostPage the Fill image it expects (a mismatch is
// passed through and fails there).
func readBack(want map[page.ID]uint64, pageIn func(page.ID) (page.Buf, error), matches func(page.ID, page.Buf) bool) error {
	if len(want) == 0 {
		return fmt.Errorf("read-back: no page was ever acknowledged")
	}
	return chaos.NoLostPage(want, func(id page.ID) (page.Buf, error) {
		got, err := pageIn(id)
		if err != nil {
			return nil, err
		}
		if matches(id, got) {
			got.Fill(want[id])
		}
		return got, nil
	})
}

// readBack checks every page the stream ever had acknowledged.
func (o *oracle) readBack(pageIn func(page.ID) (page.Buf, error)) error {
	want := make(map[page.ID]uint64)
	for id, v := range o.versions {
		if v != 0 {
			want[page.ID(id)] = payloadTag(o.seed, page.ID(id), v)
		}
	}
	return readBack(want, pageIn, func(id page.ID, got page.Buf) bool { return o.matches(0, id, got) })
}
