package client_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"rmp/internal/chaos"
	"rmp/internal/client"
	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
)

// Property-based tests for the redundancy policies: under a random
// write workload followed by the death of one randomly chosen server,
// every page a policy promises to protect must read back
// byte-identical. The generator is seeded, so a failure reproduces by
// rerunning the same seed (logged with the failure).

// propCase is one randomized scenario: a sequence of writes (some
// keys written repeatedly, so reconstruction must return the LAST
// value) and one victim server.
type propCase struct {
	seed    int64
	writes  []propWrite
	victim  int
	servers int
}

type propWrite struct {
	id   page.ID
	fill uint64
}

// genCase derives a scenario deterministically from seed. Keys are
// drawn from a small space on purpose: overwrites are the interesting
// case for parity (the delta path) and the log (slot reclamation).
func genCase(seed int64, servers int) propCase {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(60)
	keySpace := 1 + rng.Intn(24)
	c := propCase{seed: seed, servers: servers, victim: rng.Intn(servers)}
	for i := 0; i < n; i++ {
		c.writes = append(c.writes, propWrite{
			id:   page.ID(rng.Intn(keySpace)),
			fill: rng.Uint64(),
		})
	}
	return c
}

// want returns the final expected contents: last write wins.
func (c propCase) want() map[page.ID]uint64 { return lastWrites(c.writes) }

func fillPage(fill uint64) page.Buf {
	p := page.NewBuf()
	p.Fill(fill)
	return p
}

// crashProp is one row of the crash-property table: a policy, the
// cluster it runs on, and how many servers it promises to survive
// losing in the same instant. k and m are PolicyRS's shape.
type crashProp struct {
	name      string
	pol       client.Policy
	servers   int
	tolerance int
	k, m      int
	// patches says the row's layout overwrites in place at its overflow
	// budget: the workloads run past the budget, so across a test's
	// seeds some groups must have been patched before the servers die.
	patches bool
}

// crashProps: all six policies. The three shapes of the copy engine —
// a single copy promises nothing, a mirror one crash, and the
// write-through disk copy outlives every server; in-place parity; and
// the shapes of the log engine — the paper's parity logging, (3,1) on
// four servers, RS(2,1) on three, and RS(4,2) on six, which cleans
// where the single-parity rows patch.
var crashProps = []crashProp{
	{name: "NO_RELIABILITY", pol: client.PolicyNone, servers: 3, tolerance: 0},
	{name: "MIRRORING", pol: client.PolicyMirroring, servers: 3, tolerance: 1},
	{name: "WRITE_THROUGH", pol: client.PolicyWriteThrough, servers: 3, tolerance: 3},
	{name: "PARITY", pol: client.PolicyParity, servers: 4, tolerance: 1},
	{name: "PARITY_LOGGING", pol: client.PolicyParityLogging, servers: 4, tolerance: 1, patches: true},
	{name: "RS(2,1)", pol: client.PolicyRS, servers: 3, tolerance: 1, k: 2, m: 1, patches: true},
	{name: "RS(4,2)", pol: client.PolicyRS, servers: 6, tolerance: 2, k: 4, m: 2},
}

// patchCount sums Stats.Patches over the parallel seeds of one row.
type patchCount struct{ n atomic.Uint64 }

// check fails a row that promises patches and saw none.
func (pc *patchCount) check(t *testing.T, tc crashProp) {
	t.Helper()
	got := pc.n.Load()
	t.Logf("%s: %d pageouts patched in place", tc.name, got)
	if tc.patches && got == 0 {
		t.Fatalf("%s: no pageout was patched in place in any seed; the crashes never met a patched group", tc.name)
	}
}

// runKillProp is the one body of the crash properties: a seeded random
// write workload (keys rewritten, so reconstruction must return the
// LAST value), then kills servers dying in the same kill-set tick —
// connections severed mid-stream, before the pager has noticed any of
// them — then a full audit.
//
// Within the policy's tolerance every page must read back
// byte-identical, the pager must agree nothing was lost, and the
// shrunken cluster must stay writable. Past it the policy must fail
// closed: every read returns the exact last-written bytes or a clean
// error, and the pager accounts what it lost. Returns how many reads
// failed; the in-place patches the workload made are added to pc.
func runKillProp(t *testing.T, tc crashProp, seed int64, kills int, pc *patchCount) (lostReads int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	writes := genWrites(rng)
	cl := newCluster(t, tc.servers, 4096)
	cfg := cl.config(tc.pol)
	cfg.RSDataShards, cfg.RSParityShards = tc.k, tc.m // read by PolicyRS alone
	p := cl.pagerWith(cfg)
	for _, w := range writes {
		if err := p.PageOut(w.id, fillPage(w.fill)); err != nil {
			t.Fatalf("seed %d: pageout %d: %v", seed, w.id, err)
		}
	}
	pc.n.Add(p.Stats().Patches)
	victims := chaos.NewKillSet(seed, kills, cl.killTargets()...).KillExactly(kills)

	if kills <= tc.tolerance {
		if err := chaos.NoLostPage(lastWrites(writes), p.PageIn); err != nil {
			t.Fatalf("seed %d after killing %v: %v", seed, victims, err)
		}
		if r := p.Redundancy(); r.Lost != 0 {
			t.Fatalf("seed %d: Redundancy reports %d lost pages", seed, r.Lost)
		}
		if err := p.PageOut(page.ID(9000), fillPage(uint64(seed))); err != nil {
			t.Fatalf("seed %d: pageout denied after killing %v: %v", seed, victims, err)
		}
		if got, err := p.PageIn(page.ID(9000)); err != nil ||
			got.Checksum() != fillPage(uint64(seed)).Checksum() {
			t.Fatalf("seed %d: post-crash write unreadable: %v", seed, err)
		}
		return 0
	}

	for id, fill := range lastWrites(writes) {
		got, err := p.PageIn(id)
		if err != nil {
			lostReads++ // clean failure: acceptable past tolerance
			continue
		}
		if got.Checksum() != fillPage(fill).Checksum() {
			t.Fatalf("seed %d: page %d read back garbage after killing %v", seed, id, victims)
		}
	}
	// Whatever was unreadable must be accounted as lost, not silently
	// dropped.
	if lostReads > 0 && p.Redundancy().Lost == 0 && p.Stats().LostPages == 0 {
		t.Fatalf("seed %d: %d reads failed but no loss accounted", seed, lostReads)
	}
	return lostReads
}

// TestPropertySingleCrashReconstruction: for every redundancy policy,
// many seeded random workloads each survive one random server death
// with byte-identical reconstruction.
func TestPropertySingleCrashReconstruction(t *testing.T) {
	const rounds = 12
	for _, tc := range crashProps {
		t.Run(tc.name, func(t *testing.T) {
			var pc patchCount
			t.Run("seeds", func(t *testing.T) {
				for seed := int64(1); seed <= rounds; seed++ {
					t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
						t.Parallel()
						runKillProp(t, tc, seed, 1, &pc)
					})
				}
			})
			pc.check(t, tc)
		})
	}
}

// runPropCaseTiered is runPropCase over tiered servers: before the
// victim dies, every survivor's pages are forced down into the
// compressed and disk tiers, so reconstruction reads surviving
// replicas and parity out of the slow tiers — byte-identical all the
// same.
func runPropCaseTiered(t *testing.T, pol client.Policy, c propCase) {
	t.Helper()
	cl := &cluster{t: t, net: memnet.New()}
	for i := 0; i < c.servers; i++ {
		cl.addServer(server.Config{
			Name:          fmt.Sprintf("srv%d", i),
			CapacityPages: 4096,
			OverflowFrac:  0.10,
			Spill:         true,
		})
	}
	p := cl.pager(pol)
	for _, w := range c.writes {
		if err := p.PageOut(w.id, fillPage(w.fill)); err != nil {
			t.Fatalf("seed %d: pageout %d: %v", c.seed, w.id, err)
		}
	}
	// Demote everything everywhere: one page may stay hot, one
	// compressed, the rest spill.
	for _, srv := range cl.servers {
		srv.Store().SetTargets(1, 1)
		srv.Store().Enforce()
	}
	cl.crash(c.victim)
	if err := chaos.NoLostPage(c.want(), p.PageIn); err != nil {
		t.Fatalf("seed %d after crash of server %d (tiered): %v", c.seed, c.victim, err)
	}
	if r := p.Redundancy(); r.Lost != 0 {
		t.Fatalf("seed %d: Redundancy reports %d lost pages", c.seed, r.Lost)
	}
	// The survivors really were serving out of their lower tiers.
	var coldHits, diskHits uint64
	for i, srv := range cl.servers {
		if i == c.victim {
			continue
		}
		st := srv.Store().Stats()
		coldHits += st.ColdHits
		diskHits += st.DiskHits
	}
	if coldHits+diskHits == 0 {
		t.Fatalf("seed %d: no reconstruction reads hit a demoted tier", c.seed)
	}
}

// TestPropertyTieredCrashReconstruction: the single-crash property
// holds when the surviving servers hold their pages in compressed and
// disk tiers rather than hot memory.
func TestPropertyTieredCrashReconstruction(t *testing.T) {
	cases := []struct {
		pol     client.Policy
		servers int
	}{
		{client.PolicyMirroring, 3},
		{client.PolicyParity, 4},
		{client.PolicyParityLogging, 4},
		{client.PolicyRS, 6},
	}
	const rounds = 8
	for _, tc := range cases {
		t.Run(tc.pol.String(), func(t *testing.T) {
			for seed := int64(1); seed <= rounds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					runPropCaseTiered(t, tc.pol, genCase(seed, tc.servers))
				})
			}
		})
	}
}

// genWrites is genCase's workload generator alone: a seeded random
// write sequence over a small key space, victims chosen elsewhere
// (the multi-crash tests draw theirs from a chaos.KillSet instead).
func genWrites(rng *rand.Rand) []propWrite {
	n := 10 + rng.Intn(60)
	keySpace := 1 + rng.Intn(24)
	writes := make([]propWrite, 0, n)
	for i := 0; i < n; i++ {
		writes = append(writes, propWrite{
			id:   page.ID(rng.Intn(keySpace)),
			fill: rng.Uint64(),
		})
	}
	return writes
}

func lastWrites(writes []propWrite) map[page.ID]uint64 {
	m := make(map[page.ID]uint64)
	for _, w := range writes {
		m[w.id] = w.fill
	}
	return m
}

// TestPropertyRSMultiCrashReconstruction: the rows that promise more
// than one crash — RS(4,2), and write-through, whose disk copy
// survives all three of its servers — survive a correlated kill of up
// to that many servers in the same instant, every page byte-identical,
// the cluster still writable afterwards.
func TestPropertyRSMultiCrashReconstruction(t *testing.T) {
	const rounds = 10
	for _, tc := range crashProps {
		if tc.tolerance < 2 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= rounds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					runKillProp(t, tc, seed, 1+int(seed)%tc.tolerance, new(patchCount))
				})
			}
		})
	}
}

// TestPropertyFailClosedBeyondTolerance: every policy pushed one crash
// past its tolerance must fail closed. Garbage never reaches the
// application, and the pager itself accounts the loss.
func TestPropertyFailClosedBeyondTolerance(t *testing.T) {
	const rounds = 6
	for _, tc := range crashProps {
		if tc.tolerance >= tc.servers {
			continue // the disk copy outlives every server: there is no beyond
		}
		t.Run(tc.name, func(t *testing.T) {
			var lostReads atomic.Int64
			var pc patchCount
			t.Run("seeds", func(t *testing.T) {
				for seed := int64(1); seed <= rounds; seed++ {
					t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
						t.Parallel()
						lostReads.Add(int64(runKillProp(t, tc, seed, tc.tolerance+1, &pc)))
					})
				}
			})
			pc.check(t, tc)
			// Across the rounds at least one page must actually have
			// been lost, or the property never exercised the fail-closed
			// path.
			if lostReads.Load() == 0 {
				t.Fatalf("no page was ever lost across %d rounds of %d simultaneous crashes", rounds, tc.tolerance+1)
			}
		})
	}
}

// TestPropertyFreeThenCrash: interleaving frees with writes must not
// confuse reconstruction — freed pages stay gone, live pages stay
// intact, under every policy.
func TestPropertyFreeThenCrash(t *testing.T) {
	for _, tc := range []struct {
		pol     client.Policy
		servers int
	}{
		{client.PolicyMirroring, 3},
		{client.PolicyParity, 4},
		{client.PolicyParityLogging, 4},
		{client.PolicyRS, 6},
	} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			t.Parallel()
			const seed = 42
			rng := rand.New(rand.NewSource(seed))
			cl := newCluster(t, tc.servers, 4096)
			p := cl.pager(tc.pol)

			live := make(map[page.ID]uint64)
			for i := 0; i < 80; i++ {
				id := page.ID(rng.Intn(20))
				if _, ok := live[id]; ok && rng.Intn(3) == 0 {
					if err := p.Free(id); err != nil {
						t.Fatalf("free %d: %v", id, err)
					}
					delete(live, id)
					continue
				}
				fill := rng.Uint64()
				if err := p.PageOut(id, fillPage(fill)); err != nil {
					t.Fatalf("pageout %d: %v", id, err)
				}
				live[id] = fill
			}
			cl.crash(rng.Intn(tc.servers))
			for id, fill := range live {
				got, err := p.PageIn(id)
				if err != nil {
					t.Fatalf("pagein %d after crash: %v", id, err)
				}
				if got.Checksum() != fillPage(fill).Checksum() {
					t.Fatalf("page %d corrupted after crash", id)
				}
			}
		})
	}
}
