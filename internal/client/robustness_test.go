package client_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
)

// End-to-end tests for the bounded data path: adaptive request
// deadlines, bounded retry with backoff, per-server circuit breakers,
// and the guaranteed degradation paths (reconstruction for reads,
// local swap for writes) when a server wedges or corrupts responses.

// tightTimeouts is a Config fragment that shrinks the retry layer's
// time constants so a wedged server costs a test milliseconds, not the
// production seconds.
func tightTimeouts(cfg client.Config) client.Config {
	cfg.ReqTimeoutFloor = 30 * time.Millisecond
	cfg.ReqTimeout = 150 * time.Millisecond
	cfg.RetryBudget = 500 * time.Millisecond
	cfg.RetryBaseDelay = 2 * time.Millisecond
	cfg.RetryMaxDelay = 20 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 300 * time.Millisecond
	return cfg
}

// noConnGoroutines asserts that no goroutine is still blocked inside a
// connection round trip — the "zero goroutines left behind by the
// stalled server" half of the bounded-data-path guarantee.
func noConnGoroutines(t *testing.T) {
	t.Helper()
	waitUntil(t, 3*time.Second, "conn goroutines to drain", func() bool {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		return !strings.Contains(string(buf[:n]), "(*Conn).roundTrip")
	})
}

// TestStalledServerPageInBounded is the issue's acceptance scenario: a
// mirrored cluster where one server's network black-holes (TCP stays
// open, the daemon never answers — the wedged-process failure mode no
// connection error ever reports). Every page fault must still complete
// with correct contents within the retry budget, the breaker must open
// and report the server suspect, and no goroutine may stay blocked on
// the dead connection.
func TestStalledServerPageInBounded(t *testing.T) {
	pc := newProxiedCluster(t, 3, 512)
	p, err := client.New(tightTimeouts(client.Config{
		ClientName: "stall-test",
		Servers:    pc.via,
		Policy:     client.PolicyMirroring,
		Membership: hbConfig(),
		Dial:       pc.net.DialTimeout,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 20
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}

	// Black-hole server 0: nothing is forwarded any more, in either
	// direction, but every TCP connection (data path, re-dials, and
	// heartbeats alike) stays open.
	pc.proxies[0].Stall(0)

	// Each fault is individually bounded: retry budget, plus one
	// in-flight deadline of overshoot, plus recovery work — generous
	// slack for the race detector.
	perFault := 3 * time.Second
	for i := uint64(0); i < n; i++ {
		start := time.Now()
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d with one server stalled: %v", i, err)
		}
		if got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d: wrong contents", i)
		}
		if el := time.Since(start); el > perFault {
			t.Fatalf("pagein %d took %v, want < %v", i, el, perFault)
		}
	}

	st := p.Stats()
	if st.Timeouts == 0 {
		t.Error("no request timeouts recorded against the stalled server")
	}
	if st.BreakerOpens == 0 {
		t.Error("circuit breaker never opened despite consecutive timeouts")
	}
	for _, info := range p.Survey() {
		if info.Addr == pc.via[0] && info.Alive {
			t.Error("stalled server still considered alive after budget exhaustion")
		}
	}

	// Redundancy converges back to full via background re-protection.
	waitUntil(t, 5*time.Second, "re-protection to restore redundancy", func() bool {
		r := p.Redundancy()
		return r.Full == n && p.Stats().RebuildPending == 0
	})

	// Shut down while one server is still black-holed: heartbeat
	// probes in flight must unblock via their deadlines, and nothing
	// may stay parked on the dead connection.
	p.Close()
	noConnGoroutines(t)
}

// TestStallMidPageInWritesFallBack stalls a server in the middle of a
// pagein response — the first kilobytes arrive, then the stream goes
// silent mid-frame. Reads must complete from the mirror replica within
// the budget, and subsequent pageouts must degrade to the local swap
// device (disk shadow) now that only one server remains.
func TestStallMidPageInWritesFallBack(t *testing.T) {
	pc := newProxiedCluster(t, 2, 256)
	p, err := client.New(tightTimeouts(client.Config{
		ClientName: "midstall-test",
		Servers:    pc.via,
		Policy:     client.PolicyMirroring,
		Dial:       pc.net.DialTimeout,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 10
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}

	// 2 KB of allowance: the next pagein request passes through, its
	// 8 KB response truncates mid-frame, and everything after is
	// black-holed.
	pc.proxies[0].Stall(2048)

	start := time.Now()
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d: %v", i, err)
		}
		if got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d: wrong contents", i)
		}
	}
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("reads with one stalled server took %v", el)
	}
	if p.Stats().Timeouts == 0 {
		t.Error("mid-frame stall never produced a request timeout")
	}

	// Writes: with only one healthy server the mirror policy must fall
	// back to one replica plus the local swap shadow — and stay bounded.
	for i := uint64(100); i < 100+5; i++ {
		start := time.Now()
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatalf("pageout %d after stall: %v", i, err)
		}
		if el := time.Since(start); el > 3*time.Second {
			t.Fatalf("pageout %d took %v", i, el)
		}
	}
	if p.Stats().FallbackPageOuts == 0 {
		t.Error("degraded pageouts never fell back to the local swap device")
	}
	for i := uint64(100); i < 100+5; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("degraded page %d unreadable: %v", i, err)
		}
	}
	noConnGoroutines(t)
}

// TestCorruptResponsesReconstructed: a proxy that flips a byte in
// every data-bearing response makes one server's reads fail checksum
// verification persistently. The pager must treat that as a transient
// fault of the copy — reconstruct through the active redundancy policy
// (mirror replica, parity group, parity log, or the write-through
// disk) — and never surface the corruption to the application.
func TestCorruptResponsesReconstructed(t *testing.T) {
	cases := []struct {
		pol     client.Policy
		servers int
	}{
		{client.PolicyMirroring, 2},
		{client.PolicyParity, 3},
		{client.PolicyParityLogging, 3},
		{client.PolicyWriteThrough, 2},
		{client.PolicyRS, 6}, // BAD_CHECKSUM repaired by decode-then-rewrite
	}
	for _, tc := range cases {
		t.Run(tc.pol.String(), func(t *testing.T) {
			pc := newProxiedCluster(t, tc.servers, 512)
			p, err := client.New(client.Config{
				ClientName: "corrupt-test",
				Servers:    pc.via,
				Policy:     tc.pol,
				Dial:       pc.net.DialTimeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			const n = 16
			for i := uint64(0); i < n; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					t.Fatalf("pageout %d: %v", i, err)
				}
			}

			// Corrupt every data-bearing response from server 0. Write
			// traffic and bare acks pass through intact.
			pc.proxies[0].CorruptResponses(1)
			for i := uint64(0); i < n; i++ {
				got, err := p.PageIn(page.ID(i))
				if err != nil {
					t.Fatalf("pagein %d through corruption: %v", i, err)
				}
				if got.Checksum() != mkPage(i).Checksum() {
					t.Fatalf("pagein %d: corruption reached the application", i)
				}
			}
			st := p.Stats()
			if st.ChecksumFaults == 0 {
				t.Error("no checksum faults recorded although every response was corrupted")
			}

			// The line heals; the repaired copies read back clean.
			pc.proxies[0].CorruptResponses(0)
			for i := uint64(0); i < n; i++ {
				got, err := p.PageIn(page.ID(i))
				if err != nil || got.Checksum() != mkPage(i).Checksum() {
					t.Fatalf("pagein %d after heal: %v", i, err)
				}
			}
		})
	}
}

// TestLogRebuildThroughUnreadableColumn: one data column of a log
// layout answers every read with a corrupted page. A rebuild that
// loses no server (the evacuation of another, pressured one) must
// decode that column's pages from their groups and hand every page
// back byte-identical; a rebuild after further columns die, putting
// the groups past their tolerance, must mark what it cannot decode as
// lost — ErrPageLost and counted in Redundancy, never forgotten.
func TestLogRebuildThroughUnreadableColumn(t *testing.T) {
	cases := []struct {
		pol     client.Policy
		servers int
		kill    []int // with column 0 unreadable, one column too many
	}{
		{client.PolicyParityLogging, 5, []int{1}},
		{client.PolicyRS, 6, []int{1, 2}},
	}
	const n = 26 // sealed groups of four plus an open group of two
	setup := func(t *testing.T, pol client.Policy, servers int) (*proxiedCluster, *client.Pager) {
		pc := newProxiedCluster(t, servers, 512)
		p, err := client.New(client.Config{
			ClientName: "unreadable-column-test",
			Servers:    pc.via,
			Policy:     pol,
			Dial:       pc.net.DialTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		for i := uint64(0); i < n; i++ {
			if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
				t.Fatalf("pageout %d: %v", i, err)
			}
		}
		pc.proxies[0].CorruptResponses(1)
		return pc, p
	}
	for _, tc := range cases {
		t.Run(tc.pol.String()+"/evacuate", func(t *testing.T) {
			t.Parallel()
			pc, p := setup(t, tc.pol, tc.servers)
			pc.servers[3].SetPressure(true)
			if err := p.Rebalance(); err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			if got := pc.servers[3].Store().Len(); got != 0 {
				t.Fatalf("pressured server still holds %d pages after rebalance", got)
			}
			st := p.Stats()
			if st.Recovered == 0 {
				t.Error("no page was decoded although a whole column was unreadable")
			}
			if r := p.Redundancy(); st.LostPages != 0 || r.Lost != 0 {
				t.Fatalf("rebuild within tolerance lost pages: LostPages=%d Redundancy=%+v", st.LostPages, r)
			}
			pc.proxies[0].CorruptResponses(0)
			for i := uint64(0); i < n; i++ {
				got, err := p.PageIn(page.ID(i))
				if err != nil || got.Checksum() != mkPage(i).Checksum() {
					t.Fatalf("pagein %d after the rebuild: %v", i, err)
				}
			}
		})
		t.Run(tc.pol.String()+"/past-tolerance", func(t *testing.T) {
			t.Parallel()
			pc, p := setup(t, tc.pol, tc.servers)
			for _, srv := range tc.kill {
				pc.kill(srv)
			}
			lost := 0
			for i := uint64(0); i < n; i++ {
				got, err := p.PageIn(page.ID(i))
				switch {
				case err == nil:
					if got.Checksum() != mkPage(i).Checksum() {
						t.Fatalf("pagein %d returned garbage instead of an error", i)
					}
				case errors.Is(err, client.ErrPageLost):
					lost++
				default:
					t.Fatalf("pagein %d: %v, want the page or ErrPageLost", i, err)
				}
			}
			if lost == 0 {
				t.Fatal("groups past their tolerance lost nothing")
			}
			if r := p.Redundancy(); r.Lost != lost {
				t.Fatalf("Redundancy counts %d lost pages, %d reads answered ErrPageLost", r.Lost, lost)
			}
			// A lost page the application writes again is a page again.
			for i := uint64(0); i < n; i++ {
				if _, err := p.PageIn(page.ID(i)); err == nil {
					continue
				}
				if err := p.PageOut(page.ID(i), mkPage(i+500)); err != nil {
					t.Fatalf("pageout of lost page %d: %v", i, err)
				}
				if got, err := p.PageIn(page.ID(i)); err != nil || got.Checksum() != mkPage(i+500).Checksum() {
					t.Fatalf("pagein of rewritten page %d: %v", i, err)
				}
				if r := p.Redundancy(); r.Lost != lost-1 {
					t.Fatalf("Redundancy still counts %d lost after one of %d was rewritten", r.Lost, lost)
				}
				break
			}
		})
	}
}
