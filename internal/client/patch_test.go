package client_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/wire"
)

// Crash points of the in-place overwrite (XORWRITE → XORDELTA) that the
// log engine patches with at its overflow budget and basic parity uses
// for every pageout. The faults are injected frame by frame: every
// server sits behind a frameTap, so a test can kill a machine, or answer
// in its place, at the exact message where the interesting state exists
// — the page stored and its delta not yet applied, say. No sleeps: the
// fault fires on the frame, and the pager's reaction is synchronous.

// frameVerdict is what a tap's hook decides about one frame.
type frameVerdict struct {
	sever bool      // drop the frame and cut this connection
	lose  bool      // drop the frame, keep the connection
	reply *wire.Msg // answer the sender with this instead of relaying (tag copied from the frame)
}

// frameTap relays whole frames between its listener and one backend.
type frameTap struct {
	ln   net.Listener
	dial func() (net.Conn, error)
	wg   sync.WaitGroup

	mu     sync.Mutex
	hook   func(toServer bool, m *wire.Msg) frameVerdict // Guarded by mu.
	conns  map[net.Conn]struct{}                         // Guarded by mu.
	closed bool                                          // Guarded by mu.
}

func newFrameTap(t *testing.T, ln net.Listener, dial func() (net.Conn, error)) *frameTap {
	ft := &frameTap{ln: ln, dial: dial, conns: make(map[net.Conn]struct{})}
	ft.wg.Add(1)
	go ft.accept()
	t.Cleanup(func() {
		ft.cut()
		ft.wg.Wait()
	})
	return ft
}

func (ft *frameTap) setHook(h func(toServer bool, m *wire.Msg) frameVerdict) {
	ft.mu.Lock()
	ft.hook = h
	ft.mu.Unlock()
}

// cut stops the listener and severs every relayed connection: the
// machine behind the tap is gone as far as its peers can tell. It does
// not wait for the relays, so a hook may cut its own tap.
func (ft *frameTap) cut() {
	ft.ln.Close()
	ft.mu.Lock()
	ft.closed = true
	for c := range ft.conns {
		c.Close()
	}
	ft.mu.Unlock()
}

func (ft *frameTap) accept() {
	defer ft.wg.Done()
	for {
		front, err := ft.ln.Accept()
		if err != nil {
			return
		}
		back, err := ft.dial()
		if err != nil {
			front.Close()
			continue
		}
		ft.mu.Lock()
		if ft.closed {
			ft.mu.Unlock()
			front.Close()
			back.Close()
			return
		}
		ft.conns[front], ft.conns[back] = struct{}{}, struct{}{}
		ft.mu.Unlock()
		var wmu sync.Mutex // a substituted reply shares front with the relayed acks
		ft.wg.Add(2)
		go ft.relay(front, back, true, &wmu)
		go ft.relay(back, front, false, &wmu)
	}
}

func (ft *frameTap) relay(src, dst net.Conn, toServer bool, frontMu *sync.Mutex) {
	defer ft.wg.Done()
	defer src.Close()
	defer dst.Close()
	for {
		m, err := wire.DecodePooled(src)
		if err != nil {
			return
		}
		ft.mu.Lock()
		hook := ft.hook
		ft.mu.Unlock()
		var v frameVerdict
		if hook != nil {
			v = hook(toServer, m)
		}
		switch {
		case v.sever:
			err = errors.New("severed")
		case v.lose:
		case v.reply != nil:
			v.reply.Version, v.reply.ID = m.Version, m.ID
			frontMu.Lock()
			err = wire.Encode(src, v.reply)
			frontMu.Unlock()
		case toServer:
			err = wire.Encode(dst, m)
		default:
			frontMu.Lock()
			err = wire.Encode(dst, m)
			frontMu.Unlock()
		}
		wire.Recycle(m)
		if err != nil {
			return
		}
	}
}

// tapped is a cluster whose every server is reached — by the pager and
// by its peers' XORDELTAs alike — through a frameTap.
type tapped struct {
	*cluster
	taps   []*frameTap
	fronts []string // the addresses the pager is configured with
}

func newTapped(t *testing.T, n int) *tapped {
	tc := &tapped{cluster: newCluster(t, n, 4096)}
	for i := 0; i < n; i++ {
		backend := tc.addrs[i]
		front := fmt.Sprintf("tap%d:7077", i)
		tc.taps = append(tc.taps, newFrameTap(t, tc.net.MustListen(front), func() (net.Conn, error) {
			return tc.net.Dial(backend)
		}))
		tc.fronts = append(tc.fronts, front)
	}
	return tc
}

func (tc *tapped) config(pol client.Policy) client.Config {
	cfg := tightTimeouts(tc.cluster.config(pol))
	cfg.Servers = tc.fronts
	return cfg
}

// kill takes server i down in one instant, tap and all. Safe to call
// from a hook, server i's own included.
func (tc *tapped) kill(i int) {
	tc.taps[i].cut()
	tc.net.Kill(tc.addrs[i])
	tc.servers[i].Close()
}

// onFrame arms a one-shot fault on server i's tap: the first frame of
// type typ travelling in the given direction gets fault's verdict.
func (tc *tapped) onFrame(i int, typ wire.Type, toServer bool, fault func() frameVerdict) (fired func() bool) {
	var hit atomic.Bool
	tc.taps[i].setHook(func(dir bool, m *wire.Msg) frameVerdict {
		if dir != toServer || m.Type != typ || !hit.CompareAndSwap(false, true) {
			return frameVerdict{}
		}
		return fault()
	})
	return hit.Load
}

// patchFixture is sixteen pages in four sealed 4+1 groups (page i on
// column i%4 of group i/4), then five overwrites that fill the overflow
// budget exactly (int(16·1.1)+4 = 21 versions) without leaving a
// one-survivor group for the cleaner: the next overwrite of a page
// whose old version sits in a sealed group is patched in place. want
// tracks the last acknowledged contents.
type patchFixture struct {
	*tapped
	p    *client.Pager
	want map[page.ID]uint64
}

const (
	patchPages  = 16
	patchVictim = page.ID(5) // column 1 of group 1, beside pages 4 (rewritten), 6 and 7
	patchHome   = 1
	patchParity = 4
)

// newPatchFixture builds the fixture; heartbeats adds the membership
// layer, under which a crash's rebuild is queued instead of run inside
// the failing call.
func newPatchFixture(t *testing.T, heartbeats bool) *patchFixture {
	f := &patchFixture{tapped: newTapped(t, 5), want: make(map[page.ID]uint64)}
	cfg := f.config(client.PolicyParityLogging)
	if heartbeats {
		cfg.Membership = hbConfig()
	}
	f.p = f.pagerWith(cfg)
	for i := uint64(0); i < patchPages; i++ {
		f.out(t, page.ID(i), 100+i)
	}
	for n, id := range []page.ID{0, 4, 8, 12, 1} {
		f.out(t, id, 200+uint64(n))
	}
	if st := f.p.Stats(); st.Patches != 0 || st.GCPasses != 0 {
		t.Fatalf("set-up already patched or cleaned: %+v", st)
	}
	return f
}

func (f *patchFixture) out(t *testing.T, id page.ID, fill uint64) {
	t.Helper()
	if err := f.p.PageOut(id, fillPage(fill)); err != nil {
		t.Fatalf("pageout %d: %v", id, err)
	}
	f.want[id] = fill
}

// audit reads every page back: last-written bytes, or ErrPageLost for
// exactly the pages in lost.
func (f *patchFixture) audit(t *testing.T, when string, lost ...page.ID) {
	t.Helper()
	for id, fill := range f.want {
		got, err := f.p.PageIn(id)
		wantLost := false
		for _, l := range lost {
			wantLost = wantLost || l == id
		}
		switch {
		case wantLost && !errors.Is(err, client.ErrPageLost):
			t.Fatalf("%s: pagein %d = %v, want ErrPageLost", when, id, err)
		case wantLost:
		case err != nil:
			t.Fatalf("%s: pagein %d: %v", when, id, err)
		case got.Checksum() != fillPage(fill).Checksum():
			t.Fatalf("%s: page %d read back wrong bytes", when, id)
		}
	}
}

// TestPatchAtBudget: with the budget full an overwrite costs one
// XORWRITE — two transfers, no new version anywhere — and the patched
// group still rebuilds any member from its parity.
func TestPatchAtBudget(t *testing.T) {
	f := newPatchFixture(t, false)
	stored := func() (n int) {
		for _, s := range f.servers {
			n += s.Store().Len()
		}
		return n
	}
	before, held := f.p.Stats(), stored()
	f.out(t, patchVictim, 999)
	after := f.p.Stats()
	if after.Patches != before.Patches+1 || after.NetTransfers != before.NetTransfers+2 || after.GCPasses != 0 {
		t.Fatalf("overwrite at the budget: %d patches, %d transfers, %d GC passes; want 1, 2, 0",
			after.Patches-before.Patches, after.NetTransfers-before.NetTransfers, after.GCPasses)
	}
	if got := stored(); got != held {
		t.Fatalf("servers hold %d pages after the patch, %d before", got, held)
	}
	f.audit(t, "after the patch")
	f.kill(patchHome) // the patched page now decodes from its patched parity
	f.audit(t, "after the patched page's server died")
	if r := f.p.Redundancy(); r.Lost != 0 {
		t.Fatalf("Redundancy = %+v, want nothing lost", r)
	}
}

// TestPatchCrashPoints: every way the XORWRITE → XORDELTA pair can be
// cut short. One fault must cost nothing — the pageout succeeds, every
// page reads back, and after one more server dies every page still
// does, which it would not if a group's parity had been left without
// (or with twice) the patch's delta. Two faults may cost pages, never
// bytes.
func TestPatchCrashPoints(t *testing.T) {
	internalErr := func() frameVerdict {
		return frameVerdict{reply: &wire.Msg{Type: wire.TXorDeltaAck, Status: wire.StatusInternal}}
	}
	cases := []struct {
		name string
		// arm injects the fault the patch will meet and returns the
		// probe saying it fired.
		arm func(f *patchFixture) func() bool
		// lost are the pages two faults are allowed to cost.
		lost []page.ID
		// next is the server killed for the second audit; -1 when the
		// case already spent the layout's tolerance.
		next int
		// heartbeats runs the case under the membership layer.
		heartbeats bool
		// keepsServers: no machine died, so none may be given up — the
		// layout stays 4+1 and no write is counted degraded.
		keepsServers bool
	}{
		{name: "home dies before storing", next: 2,
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchHome, wire.TXorWrite, true, func() frameVerdict {
					f.kill(patchHome)
					return frameVerdict{sever: true}
				})
			}},
		{name: "home dies before storing, rebuild queued", next: 2, heartbeats: true,
			// The queued rebuild must still run while the pageout buffer
			// can stand in for the patched slot, or the page is decoded
			// through the parity in doubt — refused, and counted lost.
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchHome, wire.TXorWrite, true, func() frameVerdict {
					f.kill(patchHome)
					return frameVerdict{sever: true}
				})
			}},
		{name: "home dies after storing, before forwarding", next: 2,
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchParity, wire.TXorDelta, true, func() frameVerdict {
					f.kill(patchHome)
					return frameVerdict{sever: true}
				})
			}},
		{name: "home dies after forwarding, before the ack", next: 2,
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchHome, wire.TXorWriteAck, false, func() frameVerdict {
					f.kill(patchHome)
					return frameVerdict{sever: true}
				})
			}},
		{name: "the ack is lost", next: 2, keepsServers: true,
			// Page stored, delta applied, deadline missed: the pager cannot
			// tell that from any other outcome. It re-plans, and a server
			// that is merely slow is not declared dead for it.
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchHome, wire.TXorWriteAck, false, func() frameVerdict {
					return frameVerdict{lose: true}
				})
			}},
		{name: "parity server refuses the delta", next: 2, keepsServers: true,
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchParity, wire.TXorDelta, true, internalErr)
			}},
		{name: "parity server dies mid-forward", next: 2,
			arm: func(f *patchFixture) func() bool {
				return f.onFrame(patchParity, wire.TXorDelta, true, func() frameVerdict {
					f.kill(patchParity)
					return frameVerdict{sever: true}
				})
			}},
		{name: "another data column already dead", next: -1,
			// Column 2 dies unnoticed, then the patch's delta is refused:
			// page 6 sat on the dead column of the very group whose parity
			// is now in doubt. It is lost; it must not be decoded.
			lost: []page.ID{6},
			arm: func(f *patchFixture) func() bool {
				f.kill(2)
				return f.onFrame(patchParity, wire.TXorDelta, true, internalErr)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := newPatchFixture(t, tc.heartbeats)
			fired := tc.arm(f)
			within(t, 30*time.Second, "the faulted pageout", func() { f.out(t, patchVictim, 999) })
			if !fired() {
				t.Fatal("the pageout never reached the fault: it was not patched")
			}
			if st := f.p.Stats(); st.Patches != 0 {
				t.Fatalf("%d patches counted though the only one failed", st.Patches)
			}
			f.audit(t, "after the faulted patch", tc.lost...)
			if st, r := f.p.Stats(), f.p.Redundancy(); int(st.LostPages) != len(tc.lost) || r.Lost != len(tc.lost) {
				t.Fatalf("LostPages = %d, Redundancy = %+v, want %d lost", st.LostPages, r, len(tc.lost))
			}
			if tc.keepsServers {
				for _, si := range f.p.Survey() {
					if !si.Alive {
						t.Fatalf("server %s given up though no machine died: %s", si.Addr, si.DiedCause)
					}
				}
				if st := f.p.Stats(); st.DegradedWrites != 0 {
					t.Fatalf("%d degraded writes with every server up", st.DegradedWrites)
				}
			}
			if tc.next < 0 {
				return
			}
			f.kill(tc.next)
			f.audit(t, "after one more server died")
			if r := f.p.Redundancy(); r.Lost != 0 {
				t.Fatalf("after one more server died: Redundancy = %+v", r)
			}
		})
	}
}

// TestPatchOnDegradedLayout: a 3+1 layout left by a crash patches like
// the full one, counts the writes as degraded, and still rebuilds a
// patched page when a second server goes.
func TestPatchOnDegradedLayout(t *testing.T) {
	f := newPatchFixture(t, false)
	f.kill(3)
	f.audit(t, "after the first crash") // notices, rebuilds into 3+1
	if st := f.p.Stats(); st.Rehomed == 0 {
		t.Fatalf("the crash was not rebuilt: %+v", st)
	}
	// A fresh log holds no superseded version: spread overwrites over the
	// groups until the budget (int(16·1.1)+3 = 20) is full, then go on.
	before := f.p.Stats()
	for n, id := range []page.ID{0, 3, 6, 9, 12, 15, 1, 4, 7, 10} {
		f.out(t, id, 300+uint64(n))
	}
	after := f.p.Stats()
	if after.Patches == 0 || after.DegradedWrites-before.DegradedWrites != 10 {
		t.Fatalf("degraded layout: %d patches, %d degraded writes of 10", after.Patches, after.DegradedWrites-before.DegradedWrites)
	}
	f.audit(t, "after patching at 3+1")
	f.kill(0)
	f.audit(t, "after the second crash")
	if r := f.p.Redundancy(); r.Lost != 0 {
		t.Fatalf("Redundancy = %+v, want nothing lost", r)
	}
}

// TestParityRefusedDeltaIsRecomputed: basic parity's replay of an
// XORWRITE whose page was stored forwards new XOR new — nothing. If the
// first attempt's delta was refused by a live parity server, the retry
// must not leave the group's parity with the old contribution: after
// another member's server dies, that member is rebuilt from the parity,
// and it must come back byte for byte.
func TestParityRefusedDeltaIsRecomputed(t *testing.T) {
	tc := newTapped(t, 4) // three data servers and the parity server
	p := tc.pagerWith(tc.config(client.PolicyParity))
	want := make(map[page.ID]uint64)
	out := func(id page.ID, fill uint64) {
		t.Helper()
		if err := p.PageOut(id, fillPage(fill)); err != nil {
			t.Fatalf("pageout %d: %v", id, err)
		}
		want[id] = fill
	}
	for i := uint64(0); i < 9; i++ {
		out(page.ID(i), 100+i)
	}
	fired := tc.onFrame(3, wire.TXorDelta, true, func() frameVerdict {
		return frameVerdict{reply: &wire.Msg{Type: wire.TXorDeltaAck, Status: wire.StatusInternal}}
	})
	out(0, 999)
	if !fired() {
		t.Fatal("the overwrite forwarded no delta")
	}
	for victim := 0; victim < 3; victim++ {
		tc.kill(victim)
		for id, fill := range want {
			got, err := p.PageIn(id)
			if err != nil {
				continue // a clean error is not a fabrication; the count below catches real loss
			}
			if got.Checksum() != fillPage(fill).Checksum() {
				t.Fatalf("page %d read back wrong bytes after server %d died: its group's parity kept a stale contribution", id, victim)
			}
		}
		if victim == 0 {
			if st, r := p.Stats(), p.Redundancy(); st.LostPages != 0 || r.Lost != 0 {
				t.Fatalf("one crash after a refused delta lost pages: LostPages = %d, %+v", st.LostPages, r)
			}
		}
	}
}
