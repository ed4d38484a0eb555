package client_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
)

// TestDoubleCrashMirroring: losing both replica servers of a page is
// beyond mirroring's single-failure guarantee; the pager must report
// the loss rather than return wrong data.
func TestDoubleCrashMirroring(t *testing.T) {
	c := newCluster(t, 2, 512)
	p := c.pager(client.PolicyMirroring)
	for i := uint64(0); i < 10; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.crash(0)
	c.crash(1)
	lost := 0
	for i := uint64(0); i < 10; i++ {
		if _, err := p.PageIn(page.ID(i)); err != nil {
			lost++
		}
	}
	if lost != 10 {
		t.Fatalf("double failure: %d/10 reads failed, want all (no silent corruption)", lost)
	}
}

// TestDoubleCrashMirroringWithSpare: with a third server the pager
// re-mirrors after the first crash, so a second crash later is
// survivable.
func TestDoubleCrashMirroringWithSpare(t *testing.T) {
	c := newCluster(t, 3, 512)
	p := c.pager(client.PolicyMirroring)
	for i := uint64(0); i < 10; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.crash(0)
	// Touch every page: the crash handler re-mirrors onto the spare.
	for i := uint64(0); i < 10; i++ {
		if _, err := p.PageIn(page.ID(i)); err != nil {
			t.Fatalf("pagein %d after first crash: %v", i, err)
		}
	}
	c.crash(1)
	for i := uint64(0); i < 10; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d after second crash: %v", i, err)
		}
	}
}

// TestDoubleCrashParityLogging: two simultaneous data-column losses
// exceed single-parity protection; affected pages must error, and the
// LostPages stat must account for them.
func TestDoubleCrashParityLogging(t *testing.T) {
	c := newCluster(t, 5, 512)
	p := c.pager(client.PolicyParityLogging)
	const n = 40
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two data columns die before the pager can react.
	c.crash(0)
	c.crash(1)
	lost, ok := 0, 0
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		switch {
		case err == nil:
			if got.Checksum() != mkPage(i).Checksum() {
				t.Fatalf("page %d silently corrupted after double crash", i)
			}
			ok++
		default:
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("double crash lost nothing — test not exercising the limit")
	}
	if ok == 0 {
		t.Fatal("pages on surviving columns also lost")
	}
	if p.Stats().LostPages == 0 {
		t.Fatal("LostPages not accounted")
	}
	// The pager must remain usable for new pageouts.
	if err := p.PageOut(page.ID(1000), mkPage(1000)); err != nil {
		t.Fatalf("pageout after double crash: %v", err)
	}
	got, err := p.PageIn(page.ID(1000))
	if err != nil || got.Checksum() != mkPage(1000).Checksum() {
		t.Fatalf("pagein after double crash: %v", err)
	}
}

// TestParityLogJoinRestoresWidth: the log engine's one join rule, under
// PARITY_LOGGING. A crash narrows the 3+1 stripe to 2+1 and its writes
// are counted degraded, never denied; a server joining while the
// layout is narrower than its shape re-plans at once, back to 3+1; a
// server joining a layout at its shape is left out as a spare.
func TestParityLogJoinRestoresWidth(t *testing.T) {
	c := newCluster(t, 4, 1024)
	p := c.pager(client.PolicyParityLogging)
	const n = 24
	write := func(base uint64) {
		t.Helper()
		for i := uint64(0); i < n; i++ {
			if err := p.PageOut(page.ID(i), mkPage(base+i)); err != nil {
				t.Fatalf("pageout %d: %v", i, err)
			}
		}
	}
	join := func(name string) *server.Server {
		t.Helper()
		srv := c.addServer(server.Config{Name: name, CapacityPages: 1024, OverflowFrac: 0.10})
		if err := p.AddServer(c.addrs[len(c.addrs)-1]); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		return srv
	}

	write(0)
	if d := p.Stats().DegradedWrites; d != 0 {
		t.Fatalf("DegradedWrites = %d at full width", d)
	}
	c.crash(1)
	write(100)
	narrowed := p.Stats().DegradedWrites
	if narrowed == 0 {
		t.Fatal("writes through the narrowed stripe not counted degraded")
	}

	first := join("srv4")
	write(200)
	if d := p.Stats().DegradedWrites; d != narrowed {
		t.Fatalf("writes still degraded after the join: %d -> %d", narrowed, d)
	}
	if first.Store().Len() == 0 {
		t.Fatal("the joiner took no column although the stripe was narrower than its shape")
	}

	spare := join("srv5")
	write(300)
	if got := spare.Store().Len(); got != 0 {
		t.Fatalf("a joiner to a full-width layout was handed %d pages", got)
	}
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(300+i).Checksum() {
			t.Fatalf("pagein %d: %v", i, err)
		}
	}
}

// TestAllServersCrashParityLogging: with every server gone, new
// pageouts fall back to the local disk and remain readable.
func TestAllServersCrashParityLogging(t *testing.T) {
	c := newCluster(t, 3, 512)
	p := c.pager(client.PolicyParityLogging)
	if err := p.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}
	for i := range c.servers {
		c.crash(i)
	}
	// The old page is gone (total loss is beyond any single-parity
	// scheme), but the pager keeps working via the disk.
	if err := p.PageOut(2, mkPage(2)); err != nil {
		t.Fatalf("pageout with no servers: %v", err)
	}
	got, err := p.PageIn(2)
	if err != nil || got.Checksum() != mkPage(2).Checksum() {
		t.Fatalf("disk-fallback pagein: %v", err)
	}
	if p.Stats().FallbackPageOuts == 0 {
		t.Fatal("no disk fallback counted")
	}
}

// TestFreeDiskFallbackPage: freeing a page that lives on the local
// disk must release its slot under every policy.
func TestFreeDiskFallbackPage(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			c := newCluster(t, 2, 4) // tiny: forces fallback
			if pol == client.PolicyParityLogging || pol == client.PolicyParity {
				c = newCluster(t, 3, 4)
			}
			p := c.pager(pol)
			for i := uint64(0); i < 30; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					t.Fatal(err)
				}
			}
			if p.Stats().FallbackPageOuts == 0 {
				t.Skip("policy kept everything remote at this size")
			}
			for i := uint64(0); i < 30; i++ {
				if err := p.Free(page.ID(i)); err != nil {
					t.Fatalf("free %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 30; i++ {
				if _, err := p.PageIn(page.ID(i)); err == nil {
					t.Fatalf("freed page %d still readable", i)
				}
			}
		})
	}
}

// TestRefusedRedialEndsRetry: over real loopback TCP a dead daemon's
// port refuses the re-dial, and that verdict ends the retry loop at
// once — whichever operation met the dead server first. One re-dial,
// no budget spent, every page still byte-correct. (Without the rule a
// replayable request spends the whole budget re-dialling and a patch,
// one attempt by construction, none of it: the same crash costs the
// application milliseconds or the budget, by chance.)
func TestRefusedRedialEndsRetry(t *testing.T) {
	const n = 40
	firstOps := []struct {
		name string
		op   func(p *client.Pager) error
	}{
		{"pagein", func(p *client.Pager) error {
			for i := uint64(0); i < n; i++ {
				if _, err := p.PageIn(page.ID(i)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"append", func(p *client.Pager) error {
			for i := uint64(n); i < 2*n; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"patch", func(p *client.Pager) error {
			for i := uint64(0); i < n; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i+1000)); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, first := range firstOps {
		t.Run(first.name, func(t *testing.T) {
			var servers []*server.Server
			var addrs []string
			for i := 0; i < 5; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				s := server.New(server.Config{CapacityPages: 512, OverflowFrac: 0.10})
				s.Serve(ln)
				t.Cleanup(func() { s.Close() })
				servers = append(servers, s)
				addrs = append(addrs, ln.Addr().String())
			}
			p, err := client.New(client.Config{
				ClientName:  "refused-" + first.name,
				Servers:     addrs,
				Policy:      client.PolicyParityLogging,
				RetryBudget: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			// Twice over, so the log sits at its budget and the patch
			// row's overwrites are patches.
			for v := uint64(0); v < 2; v++ {
				for i := uint64(0); i < n; i++ {
					if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			servers[0].Close()
			if err := first.op(p); err != nil {
				t.Fatalf("first %s after the crash: %v", first.name, err)
			}
			st := p.Stats()
			if st.DeadlineFallbacks != 0 || st.Retries > 2 {
				t.Errorf("retry budget spent on a refused port: %d retries, %d budgets exhausted", st.Retries, st.DeadlineFallbacks)
			}
			for i := uint64(0); i < n; i++ {
				want := mkPage(i)
				if first.name == "patch" {
					want = mkPage(i + 1000)
				}
				got, err := p.PageIn(page.ID(i))
				if err != nil || got.Checksum() != want.Checksum() {
					t.Fatalf("page %d after the crash: %v", i, err)
				}
			}
		})
	}
}

// TestServerRejoinsAfterRestart: a crashed server that comes back
// (restarted daemon on the same address) is re-dialed by Rebalance
// and used for new placements.
func TestServerRejoinsAfterRestart(t *testing.T) {
	c := newCluster(t, 2, 256)
	p := c.pager(client.PolicyNone)
	for i := uint64(0); i < 8; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	addr := c.addrs[0]
	c.crash(0)
	// Touch a page so the pager notices the death.
	for i := uint64(0); i < 8; i++ {
		p.PageIn(page.ID(i))
	}

	// Restart a daemon on the same address. On the in-memory network
	// the crashed listener's address is freed synchronously by Close,
	// so the restart can never hit a port-reuse race.
	ln, err := c.net.Listen(addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	srv2 := server.New(server.Config{CapacityPages: 256, Dial: c.net.DialTimeout})
	srv2.Serve(ln)
	t.Cleanup(func() { srv2.Close() })

	if err := p.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// New pageouts spread over both servers again.
	for i := uint64(100); i < 140; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if srv2.Store().Len() == 0 {
		t.Fatal("rejoined server received no pages")
	}
}

// TestPageLostErrorIdentity: loss reports use ErrPageLost so callers
// can distinguish them from transient failures.
func TestPageLostErrorIdentity(t *testing.T) {
	c := newCluster(t, 2, 256)
	p := c.pager(client.PolicyNone)
	if err := p.PageOut(1, mkPage(1)); err != nil {
		t.Fatal(err)
	}
	c.crash(0)
	c.crash(1)
	_, err := p.PageIn(1)
	if err == nil {
		t.Fatal("pagein succeeded with all servers dead")
	}
	if !errors.Is(err, client.ErrPageLost) {
		// Either lost (if crash detected first) or a connection error;
		// force detection with a second attempt.
		if _, err2 := p.PageIn(1); err2 != nil && !errors.Is(err2, client.ErrPageLost) {
			t.Fatalf("loss not reported as ErrPageLost: %v / %v", err, err2)
		}
	}
}

// refusingServer adds a stub to the cluster's network that grants every
// ALLOC and answers every PAGEOUT with NO_SPACE — a status, so it is
// never marked dead, keeps its headroom and stays the most promising
// server — and returns its address.
func (c *cluster) refusingServer(name string) string {
	c.t.Helper()
	addr := name + ":7077"
	newStallServer(c.t, c.net.MustListen(addr)).refuseOut = true
	return addr
}

// within fails the test unless f returns within d: a policy loop that
// spins under the pager's lock must fail, not hang the suite.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// TestCopyTopUpPastRefusingServer: a server that grants space and then
// refuses the page must cost a mirrored pageout one attempt, not spin
// the top-up loop for ever. Beside one healthy server the pageout
// returns with one replica plus the disk shadow; and when a crash takes
// one of two healthy servers, restoring the copy count ends the same
// way.
func TestCopyTopUpPastRefusingServer(t *testing.T) {
	const n = 12
	c := newCluster(t, 2, 512)
	cfg := c.config(client.PolicyMirroring)
	cfg.Servers = []string{c.addrs[0], c.refusingServer("refuser")}
	p, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	within(t, 20*time.Second, "mirrored pageouts beside a refusing server", func() {
		for i := uint64(0); i < n; i++ {
			if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
				t.Errorf("pageout %d: %v", i, err)
			}
		}
	})
	st := p.Stats()
	if got := c.servers[0].Store().Len(); got != n || st.DiskWrites != n || st.FallbackPageOuts != n {
		t.Fatalf("want %d pages as one replica plus the disk shadow: server holds %d, DiskWrites=%d FallbackPageOuts=%d",
			n, got, st.DiskWrites, st.FallbackPageOuts)
	}
	if r := p.Redundancy(); r.Full != n {
		t.Fatalf("Redundancy = %+v, want Full=%d (the disk shadow)", r, n)
	}
	p.Close()

	// Two healthy servers and the refuser; then one of the two dies.
	cfg.Servers = []string{c.addrs[0], c.addrs[1], cfg.Servers[1]}
	p, err = client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i+100)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}
	if r := p.Redundancy(); r.Full != n || p.Stats().DiskWrites != 0 {
		t.Fatalf("two healthy servers: Redundancy = %+v, DiskWrites = %d, want every page mirrored", r, p.Stats().DiskWrites)
	}
	c.crash(0) // every page's first replica: the next read of each notices
	within(t, 20*time.Second, "restoring the copy count beside a refusing server", func() {
		for i := uint64(0); i < n; i++ {
			got, err := p.PageIn(page.ID(i))
			if err != nil || got.Checksum() != mkPage(i+100).Checksum() {
				t.Errorf("pagein %d after the crash: %v", i, err)
			}
		}
	})
	if r := p.Redundancy(); r.Full != n || r.Lost != 0 {
		t.Fatalf("after the crash: Redundancy = %+v, want Full=%d (one replica plus the disk shadow)", r, n)
	}
	if st := p.Stats(); st.Recovered != n || st.DiskWrites != n {
		t.Fatalf("after the crash: Recovered=%d DiskWrites=%d, want %d each", st.Recovered, st.DiskWrites, n)
	}
}

// TestLogRefusedShardLeavesNoPhantom: a data shard that a server
// refuses with a status must not stay in its group as a member nobody
// stores. With the refuser as column 0 of a (3,1) layout every page
// reads back, nothing is lost, and — the part a phantom member breaks —
// every page still decodes after one further server dies. When every
// server refuses, the page goes to the local disk and is read from
// there, not looked up in a log slot that was never stored.
func TestLogRefusedShardLeavesNoPhantom(t *testing.T) {
	const n = 12
	t.Run("column0", func(t *testing.T) {
		c := newCluster(t, 3, 512)
		cfg := c.config(client.PolicyParityLogging)
		cfg.Servers = append([]string{c.refusingServer("refuser")}, c.addrs...)
		p := c.pagerWith(cfg)
		audit := func(when string) {
			t.Helper()
			for i := uint64(0); i < n; i++ {
				got, err := p.PageIn(page.ID(i))
				if err != nil || got.Checksum() != mkPage(i).Checksum() {
					t.Fatalf("pagein %d %s: %v", i, when, err)
				}
			}
			if r := p.Redundancy(); r.Lost != 0 {
				t.Fatalf("%s: Redundancy = %+v, want nothing lost", when, r)
			}
		}
		for i := uint64(0); i < n; i++ {
			if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
				t.Fatalf("pageout %d: %v", i, err)
			}
		}
		audit("after the refused pageouts")
		c.crash(1)
		audit("after one further server died")
	})
	t.Run("every-server", func(t *testing.T) {
		c := newCluster(t, 0, 0)
		cfg := c.config(client.PolicyParityLogging)
		cfg.Servers = []string{c.refusingServer("refuser0"), c.refusingServer("refuser1")}
		p := c.pagerWith(cfg)
		for i := uint64(0); i < n; i++ {
			if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
				t.Fatalf("pageout %d: %v", i, err)
			}
		}
		for i := uint64(0); i < n; i++ {
			got, err := p.PageIn(page.ID(i))
			if err != nil || got.Checksum() != mkPage(i).Checksum() {
				t.Fatalf("pagein %d of a page only the disk holds: %v", i, err)
			}
		}
		if st := p.Stats(); st.DiskReads != n {
			t.Fatalf("DiskReads = %d, want %d", st.DiskReads, n)
		}
	})
}

// TestWriteThroughRegainsRemoteCopy: §4.7 serves reads from remote
// memory. A write-through page whose server died must get its remote
// copy back once the server restarts — Rebalance promotes it through
// the policy, whichever Config.Policy led to write-through — and the
// disk holds every page throughout.
func TestWriteThroughRegainsRemoteCopy(t *testing.T) {
	for _, pol := range []client.Policy{client.PolicyWriteThrough, client.PolicyRS /* one server: falls back to write-through */} {
		t.Run(pol.String(), func(t *testing.T) {
			const n = 10
			c := newCluster(t, 1, 256)
			p := c.pager(pol)
			onDisk := func(when string) {
				t.Helper()
				if r := p.Redundancy(); r.Full != n {
					t.Fatalf("%s: Redundancy = %+v, want all %d pages on the disk", when, r, n)
				}
			}
			readAll := func(when string) {
				t.Helper()
				for i := uint64(0); i < n; i++ {
					got, err := p.PageIn(page.ID(i))
					if err != nil || got.Checksum() != mkPage(i).Checksum() {
						t.Fatalf("pagein %d %s: %v", i, when, err)
					}
				}
			}
			for i := uint64(0); i < n; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					t.Fatal(err)
				}
			}
			onDisk("after the pageouts")
			c.crash(0)
			readAll("with the server dead") // notices the death; served by the disk
			onDisk("with the server dead")

			ln, err := c.net.Listen(c.addrs[0])
			if err != nil {
				t.Fatalf("restart on %s: %v", c.addrs[0], err)
			}
			srv2 := server.New(server.Config{CapacityPages: 256, Dial: c.net.DialTimeout})
			srv2.Serve(ln)
			t.Cleanup(func() { srv2.Close() })
			if err := p.Rebalance(); err != nil {
				t.Fatal(err)
			}
			onDisk("after the rebalance")
			if got := srv2.Store().Len(); got != n {
				t.Fatalf("restarted server holds %d pages after the rebalance, want %d", got, n)
			}
			before := p.Stats().DiskReads
			readAll("after the rebalance")
			if after := p.Stats().DiskReads; after != before {
				t.Fatalf("%d reads went to the disk although every page has a remote copy again", after-before)
			}
			srv2.Close()
			readAll("with the restarted server dead too")
		})
	}
}
