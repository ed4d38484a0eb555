package client_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rmp/internal/chaos"
	"rmp/internal/client"
	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
)

// cluster is a test fixture: n remote memory servers plus a pager,
// wired over the deterministic in-memory transport (internal/memnet)
// so tests bind no real loopback ports. Server-to-server traffic
// (XORWRITE delta forwarding) rides the same network.
type cluster struct {
	t       *testing.T
	net     *memnet.Network
	servers []*server.Server
	addrs   []string
}

func newCluster(t *testing.T, n, capacity int) *cluster {
	t.Helper()
	c := &cluster{t: t, net: memnet.New()}
	for i := 0; i < n; i++ {
		c.addServer(server.Config{
			Name:          fmt.Sprintf("srv%d", i),
			CapacityPages: capacity,
			OverflowFrac:  0.10,
		})
	}
	return c
}

// addServer starts one server on the cluster's in-memory network
// under the address "<name>:7077" and returns it.
func (c *cluster) addServer(cfg server.Config) *server.Server {
	c.t.Helper()
	cfg.Dial = c.net.DialTimeout
	s := server.New(cfg)
	addr := cfg.Name + ":7077"
	ln, err := c.net.Listen(addr)
	if err != nil {
		c.t.Fatalf("listen %s: %v", addr, err)
	}
	s.Serve(ln)
	c.t.Cleanup(func() { s.Close() })
	c.servers = append(c.servers, s)
	c.addrs = append(c.addrs, addr)
	return s
}

// config is the baseline pager configuration against this cluster;
// tests tweak and pass it to pagerWith.
func (c *cluster) config(policy client.Policy) client.Config {
	return client.Config{
		ClientName: "test-client",
		Servers:    c.addrs,
		Policy:     policy,
		Dial:       c.net.DialTimeout,
	}
}

func (c *cluster) pager(policy client.Policy) *client.Pager {
	c.t.Helper()
	return c.pagerWith(c.config(policy))
}

func (c *cluster) pagerWith(cfg client.Config) *client.Pager {
	c.t.Helper()
	p, err := client.New(cfg)
	if err != nil {
		c.t.Fatalf("pager: %v", err)
	}
	c.t.Cleanup(func() { p.Close() })
	return p
}

// crash kills server i abruptly (no BYE, connections die).
func (c *cluster) crash(i int) { c.servers[i].Close() }

// killTargets adapts the cluster's servers to chaos.KillSet targets:
// Kill severs the server's listener and every established connection
// on the in-memory network in one instant — a machine crash, not a
// graceful stop — then releases the server's resources.
func (c *cluster) killTargets() []chaos.Target {
	ts := make([]chaos.Target, len(c.servers))
	for i := range c.servers {
		i := i
		ts[i] = chaos.Target{Name: c.addrs[i], Kill: func() {
			c.net.Kill(c.addrs[i])
			c.servers[i].Close()
		}}
	}
	return ts
}

func mkPage(seed uint64) page.Buf {
	p := page.NewBuf()
	p.Fill(seed)
	return p
}

var allPolicies = []client.Policy{
	client.PolicyNone,
	client.PolicyMirroring,
	client.PolicyParity,
	client.PolicyParityLogging,
	client.PolicyWriteThrough,
	client.PolicyRS,
}

// TestRoundTripAllPolicies: pageout/pagein/overwrite across every
// policy over real TCP.
func TestRoundTripAllPolicies(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			c := newCluster(t, 3, 512)
			p := c.pager(pol)
			const n = 40
			for i := uint64(0); i < n; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					t.Fatalf("pageout %d: %v", i, err)
				}
			}
			// Overwrite half with new contents.
			for i := uint64(0); i < n; i += 2 {
				if err := p.PageOut(page.ID(i), mkPage(i+1000)); err != nil {
					t.Fatalf("re-pageout %d: %v", i, err)
				}
			}
			for i := uint64(0); i < n; i++ {
				want := mkPage(i)
				if i%2 == 0 {
					want = mkPage(i + 1000)
				}
				got, err := p.PageIn(page.ID(i))
				if err != nil {
					t.Fatalf("pagein %d: %v", i, err)
				}
				if got.Checksum() != want.Checksum() {
					t.Fatalf("page %d contents wrong", i)
				}
			}
		})
	}
}

func TestPageInNeverPagedOut(t *testing.T) {
	c := newCluster(t, 2, 64)
	p := c.pager(client.PolicyNone)
	if _, err := p.PageIn(123); !errors.Is(err, client.ErrNotPagedOut) {
		t.Fatalf("got %v, want ErrNotPagedOut", err)
	}
}

func TestFreeAllPolicies(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			c := newCluster(t, 3, 256)
			p := c.pager(pol)
			for i := uint64(0); i < 10; i++ {
				if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Free(0, 1, 2, 3, 4, 5, 6, 7, 8, 9); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PageIn(0); err == nil {
				t.Fatal("freed page still readable")
			}
		})
	}
}

// TestCrashNoneLosesPages: PolicyNone loses pages on a crash — the
// paper's motivation for reliability.
func TestCrashNoneLosesPages(t *testing.T) {
	c := newCluster(t, 2, 256)
	p := c.pager(client.PolicyNone)
	for i := uint64(0); i < 20; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.crash(0)
	lost, survived := 0, 0
	for i := uint64(0); i < 20; i++ {
		_, err := p.PageIn(page.ID(i))
		switch {
		case err == nil:
			survived++
		case errors.Is(err, client.ErrPageLost):
			lost++
		default:
			t.Fatalf("pagein %d: unexpected error %v", i, err)
		}
	}
	if lost == 0 {
		t.Fatal("no pages lost after crash under PolicyNone")
	}
	if survived == 0 {
		t.Fatal("pages on the surviving server also lost")
	}
	if p.Stats().LostPages == 0 {
		t.Fatal("LostPages not counted")
	}
}

// reliableCrashTest verifies that after crashing one server, every
// page is still readable with correct contents.
func reliableCrashTest(t *testing.T, pol client.Policy, nServers, crashIdx int) {
	c := newCluster(t, nServers, 512)
	p := c.pager(pol)
	const n = 30
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i*3)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}
	// Rewrite some pages so parity logging has inactive versions.
	for i := uint64(0); i < n; i += 3 {
		if err := p.PageOut(page.ID(i), mkPage(i*3+7)); err != nil {
			t.Fatal(err)
		}
	}
	c.crash(crashIdx)
	for i := uint64(0); i < n; i++ {
		want := mkPage(i * 3)
		if i%3 == 0 {
			want = mkPage(i*3 + 7)
		}
		got, err := p.PageIn(page.ID(i))
		if err != nil {
			t.Fatalf("pagein %d after crash: %v", i, err)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("page %d corrupted by recovery", i)
		}
	}
	// The system must stay writable after recovery.
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i+5000)); err != nil {
			t.Fatalf("post-recovery pageout %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i+5000).Checksum() {
			t.Fatalf("post-recovery pagein %d: %v", i, err)
		}
	}
}

func TestCrashMirroringRecovers(t *testing.T) {
	reliableCrashTest(t, client.PolicyMirroring, 3, 0)
}

func TestCrashParityDataServerRecovers(t *testing.T) {
	// Servers 0,1,2 are data; 3 is parity.
	reliableCrashTest(t, client.PolicyParity, 4, 1)
}

func TestCrashParityParityServerRecovers(t *testing.T) {
	reliableCrashTest(t, client.PolicyParity, 4, 3)
}

func TestCrashParityLoggingDataColumnRecovers(t *testing.T) {
	// Paper configuration: 4 data servers + 1 parity server.
	reliableCrashTest(t, client.PolicyParityLogging, 5, 2)
}

func TestCrashParityLoggingParityServerRecovers(t *testing.T) {
	reliableCrashTest(t, client.PolicyParityLogging, 5, 4)
}

func TestCrashWriteThroughRecovers(t *testing.T) {
	reliableCrashTest(t, client.PolicyWriteThrough, 2, 0)
}

func TestCrashWriteThroughLastServerFallsBackToDisk(t *testing.T) {
	c := newCluster(t, 1, 256)
	p := c.pager(client.PolicyWriteThrough)
	for i := uint64(0); i < 10; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.crash(0)
	for i := uint64(0); i < 10; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("disk copy unreadable after total server loss: %v", err)
		}
	}
}

// TestParityLoggingTransferRatio verifies the live system achieves
// the paper's 1 + 1/S transfers per pageout.
func TestParityLoggingTransferRatio(t *testing.T) {
	c := newCluster(t, 5, 1024) // S = 4 data + parity
	p := c.pager(client.PolicyParityLogging)
	const outs = 200
	for i := 0; i < outs; i++ {
		// Unique pages: no inactive churn, no GC.
		if err := p.PageOut(page.ID(i), mkPage(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	want := uint64(outs + outs/4)
	if st.NetTransfers != want {
		t.Fatalf("NetTransfers = %d for %d pageouts, want %d (1+1/S)", st.NetTransfers, outs, want)
	}
}

// TestMirroringTransferRatio: 2 transfers per pageout.
func TestMirroringTransferRatio(t *testing.T) {
	c := newCluster(t, 3, 1024)
	p := c.pager(client.PolicyMirroring)
	const outs = 50
	for i := 0; i < outs; i++ {
		if err := p.PageOut(page.ID(i), mkPage(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.NetTransfers != 2*outs {
		t.Fatalf("NetTransfers = %d, want %d", st.NetTransfers, 2*outs)
	}
}

// TestBasicParityTransferRatio: 2 page transfers per pageout (one of
// them server->parity).
func TestBasicParityTransferRatio(t *testing.T) {
	c := newCluster(t, 3, 1024)
	p := c.pager(client.PolicyParity)
	const outs = 50
	for i := 0; i < outs; i++ {
		if err := p.PageOut(page.ID(i), mkPage(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.NetTransfers != 2*outs {
		t.Fatalf("NetTransfers = %d, want %d", st.NetTransfers, 2*outs)
	}
}

// TestDiskFallbackWhenServersFull: when every server denies space the
// pager pages to the local disk (paper §2.1).
func TestDiskFallbackWhenServersFull(t *testing.T) {
	c := newCluster(t, 2, 8) // tiny servers
	p := c.pager(client.PolicyNone)
	const n = 64
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatalf("pageout %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.FallbackPageOuts == 0 {
		t.Fatal("no disk fallback despite full servers")
	}
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d: %v", i, err)
		}
	}
}

// TestPressureMigration: a server under memory pressure advises the
// client, which migrates pages away on Rebalance (paper §2.1).
func TestPressureMigration(t *testing.T) {
	c := newCluster(t, 3, 512)
	p := c.pager(client.PolicyNone)
	for i := uint64(0); i < 30; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.servers[0].SetPressure(true)
	if err := p.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if p.Stats().Migrated == 0 {
		t.Fatal("no pages migrated off the pressured server")
	}
	// Server 0's store drains as pages move away.
	if got := c.servers[0].Store().Len(); got != 0 {
		t.Fatalf("pressured server still holds %d pages", got)
	}
	for i := uint64(0); i < 30; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d after migration: %v", i, err)
		}
	}
}

// TestWeighTiersStaysPut: with WeighTiers on, a pressure advisory
// from a server that is still serving out of memory (hot + compressed
// tiers) does not trigger evacuation — but once the server's pages
// sink into its disk tier, the pager moves them away after all.
func TestWeighTiersStaysPut(t *testing.T) {
	c := &cluster{t: t, net: memnet.New()}
	for i := 0; i < 3; i++ {
		c.addServer(server.Config{
			Name:          fmt.Sprintf("srv%d", i),
			CapacityPages: 512,
			OverflowFrac:  0.10,
			Spill:         true,
		})
	}
	cfg := c.config(client.PolicyNone)
	cfg.WeighTiers = true
	p := c.pagerWith(cfg)
	const n = 30
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	held := c.servers[0].Store().Len()
	if held == 0 {
		t.Fatal("setup: server 0 got no pages")
	}

	// Pressure compresses part of the resident set but spills nothing:
	// the tier mix is tolerable, so the pager stays put.
	c.servers[0].SetPressure(true)
	if err := p.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	st := p.Stats()
	if st.StayedPut == 0 {
		t.Fatal("pager evacuated despite a memory-served tier mix")
	}
	if got := c.servers[0].Store().Len(); got != held {
		t.Fatalf("pages moved anyway: %d of %d left", got, held)
	}
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d while staying put: %v", i, err)
		}
	}

	// Now sink the server's pages into the disk tier: the same
	// advisory crosses EvacuateDiskFrac and the pager moves away.
	c.servers[0].Store().SetTargets(1, 1)
	c.servers[0].Store().Enforce()
	if err := p.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if got := c.servers[0].Store().Len(); got != 0 {
		t.Fatalf("disk-heavy pressured server still holds %d pages", got)
	}
	for i := uint64(0); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d after evacuation: %v", i, err)
		}
	}
}

// TestDiskPromotion: pages that fell back to disk move to remote
// memory once a server frees up (paper §2.1).
func TestDiskPromotion(t *testing.T) {
	c := newCluster(t, 2, 8)
	p := c.pager(client.PolicyNone)
	const n = 40
	for i := uint64(0); i < n; i++ {
		if err := p.PageOut(page.ID(i), mkPage(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats()
	if before.FallbackPageOuts == 0 {
		t.Fatal("setup: expected disk fallback")
	}
	// Free most pages server-side by freeing them via the pager, then
	// promote.
	for i := uint64(0); i < n/2; i++ {
		if err := p.Free(page.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Rebalance(); err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if after.Migrated == before.Migrated {
		t.Fatal("no disk pages promoted to remote memory")
	}
	for i := uint64(n / 2); i < n; i++ {
		got, err := p.PageIn(page.ID(i))
		if err != nil || got.Checksum() != mkPage(i).Checksum() {
			t.Fatalf("pagein %d after promotion: %v", i, err)
		}
	}
}

// TestParityLoggingGC: heavy rewriting of a small working set must
// trigger garbage collection and keep server memory bounded.
func TestParityLoggingGC(t *testing.T) {
	c := newCluster(t, 5, 4096)
	p := c.pager(client.PolicyParityLogging)
	// Fragmenting workload: interleave rewrites of a hot page with
	// pageouts of cold pages that are never touched again. Every group
	// ends up holding dead hot-page versions pinned by live cold
	// pages, so inactive versions accumulate until GC rewrites the
	// cold pages into compact groups.
	const rounds = 60
	for k := uint64(0); k < rounds; k++ {
		if err := p.PageOut(page.ID(0), mkPage(10000+k)); err != nil {
			t.Fatal(err)
		}
		if err := p.PageOut(page.ID(100+k), mkPage(k)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().GCPasses == 0 {
		t.Fatal("GC never ran despite heavy fragmentation")
	}
	// Stored versions must stay near the live set: live pages, their
	// parity share, the 10% overflow, and one open group of slack.
	live := 1 + rounds
	total := 0
	for _, s := range c.servers {
		total += s.Store().Len()
	}
	bound := live + live/4 + live/5 + 10
	if total > bound {
		t.Fatalf("servers hold %d pages for %d live (bound %d): GC ineffective", total, live, bound)
	}
	// Every live page must still read back correctly.
	got, err := p.PageIn(page.ID(0))
	if err != nil || got.Checksum() != mkPage(10000+rounds-1).Checksum() {
		t.Fatalf("hot page wrong after GC churn: %v", err)
	}
	for k := uint64(0); k < rounds; k++ {
		got, err := p.PageIn(page.ID(100 + k))
		if err != nil || got.Checksum() != mkPage(k).Checksum() {
			t.Fatalf("cold page %d wrong after GC churn: %v", k, err)
		}
	}
}

// TestRandomizedWorkloadAllPolicies stress-tests mixed pageout /
// pagein / free traffic against an in-memory model.
func TestRandomizedWorkloadAllPolicies(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := newCluster(t, 4, 2048)
			p := c.pager(pol)
			model := make(map[page.ID]uint64)
			for op := 0; op < 400; op++ {
				id := page.ID(rng.Intn(50))
				switch rng.Intn(4) {
				case 0, 1: // pageout
					seed := rng.Uint64()
					if err := p.PageOut(id, mkPage(seed)); err != nil {
						t.Fatalf("op %d pageout: %v", op, err)
					}
					model[id] = seed
				case 2: // pagein
					want, ok := model[id]
					got, err := p.PageIn(id)
					if !ok {
						if err == nil {
							t.Fatalf("op %d: pagein of unknown page succeeded", op)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d pagein: %v", op, err)
					}
					if got.Checksum() != mkPage(want).Checksum() {
						t.Fatalf("op %d: wrong contents", op)
					}
				case 3: // free
					if err := p.Free(id); err != nil {
						t.Fatalf("op %d free: %v", op, err)
					}
					delete(model, id)
				}
			}
		})
	}
}

// TestCrashDuringWorkload crashes a server in the middle of traffic
// for each reliable policy and verifies no corruption.
func TestCrashDuringWorkload(t *testing.T) {
	pols := []client.Policy{client.PolicyMirroring, client.PolicyParity, client.PolicyParityLogging, client.PolicyWriteThrough}
	for _, pol := range pols {
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			c := newCluster(t, 5, 2048)
			p := c.pager(pol)
			model := make(map[page.ID]uint64)
			for op := 0; op < 300; op++ {
				if op == 150 {
					c.crash(1)
				}
				id := page.ID(rng.Intn(30))
				if rng.Intn(3) < 2 {
					seed := rng.Uint64()
					if err := p.PageOut(id, mkPage(seed)); err != nil {
						t.Fatalf("op %d pageout: %v", op, err)
					}
					model[id] = seed
				} else if want, ok := model[id]; ok {
					got, err := p.PageIn(id)
					if err != nil {
						t.Fatalf("op %d pagein: %v", op, err)
					}
					if got.Checksum() != mkPage(want).Checksum() {
						t.Fatalf("op %d: wrong contents after crash", op)
					}
				}
			}
			// Final full audit.
			for id, want := range model {
				got, err := p.PageIn(id)
				if err != nil {
					t.Fatalf("audit pagein %v: %v", id, err)
				}
				if got.Checksum() != mkPage(want).Checksum() {
					t.Fatalf("audit: page %v corrupted", id)
				}
			}
		})
	}
}

func TestLoadRegistry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "servers.conf")
	content := "# remote memory servers\n\nalpha:7000\nbeta:7000 # lab machine\n  gamma:7001\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := client.LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha:7000", "beta:7000", "gamma:7001"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLoadRegistryErrors(t *testing.T) {
	if _, err := client.LoadRegistry("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.conf")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := client.LoadRegistry(empty); err == nil {
		t.Fatal("empty registry accepted")
	}
	bad := filepath.Join(dir, "bad.conf")
	os.WriteFile(bad, []byte("not-an-address\n"), 0o644)
	if _, err := client.LoadRegistry(bad); err == nil {
		t.Fatal("malformed address accepted")
	}
}

func TestPolicyString(t *testing.T) {
	names := map[client.Policy]string{
		client.PolicyNone:          "NO_RELIABILITY",
		client.PolicyMirroring:     "MIRRORING",
		client.PolicyParity:        "PARITY",
		client.PolicyParityLogging: "PARITY_LOGGING",
		client.PolicyWriteThrough:  "WRITE_THROUGH",
		client.PolicyRS:            "RS",
	}
	for pol, want := range names {
		if got := pol.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", pol, got, want)
		}
	}
}

func TestMirroringNeedsTwoServers(t *testing.T) {
	c := newCluster(t, 1, 64)
	_, err := client.New(client.Config{Servers: c.addrs, Policy: client.PolicyMirroring, Dial: c.net.DialTimeout})
	if err == nil {
		t.Fatal("mirroring pager created with one server")
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newCluster(t, 2, 64)
	p := c.pager(client.PolicyNone)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.PageOut(1, mkPage(1)); err == nil {
		t.Fatal("pageout accepted after close")
	}
}
