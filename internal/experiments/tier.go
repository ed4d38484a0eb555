package experiments

import (
	"fmt"
	"time"

	"rmp/internal/client"
	"rmp/internal/cluster"
	"rmp/internal/disk"
	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
	"rmp/internal/store"
)

// This file measures the tiered server store two ways.
//
// Part A: pagein latency per tier. Pages are paged out to a loopback
// server, forced down into the compressed and disk tiers, and paged
// back in one at a time, attributing each round trip to the tier that
// served it. The disk tier carries a scaled-down synthetic seek model
// so the hierarchy is visible on any build machine.
//
// Part B: the paper's §4.6 load collapse replayed against the tiered
// store. The weekly idle-memory trace (internal/cluster, Figure 1)
// drives native memory pressure on the server while a client keeps
// allocating and paging. A server with DenyUnderPressure reproduces
// the paper's cliff: allocations are denied during working-hours
// pressure. The tiered server demotes instead — allocation keeps
// succeeding, pageins are served from the compressed and disk tiers,
// and nothing is lost. The machine-readable result lands in
// BENCH_tier.json.

// tierDiskModel is a ~1/8-scale RZ55: big enough to dominate memory
// latency, small enough to keep the benchmark short.
var tierDiskModel = disk.LatencyModel{
	AvgSeek:       2 * time.Millisecond,
	HalfRotation:  time.Millisecond,
	BytesPerSec:   10_000_000,
	SequentialRun: 4,
}

// TierLatency is the per-tier pagein cost (Part A).
type TierLatency struct {
	Pages  int     `json:"pages"`
	MeanUS float64 `json:"mean_us"`
}

// TierModeStats is one server mode's outcome under the load-collapse
// schedule (Part B).
type TierModeStats struct {
	AllocAttempts uint64 `json:"alloc_attempts"`
	AllocDenied   uint64 `json:"alloc_denied"`
	PageOuts      uint64 `json:"pageouts"`
	PageIns       uint64 `json:"pageins"`
	ColdHits      uint64 `json:"cold_hits"`
	DiskHits      uint64 `json:"disk_hits"`
	Demotions     uint64 `json:"demotions"`
	Spills        uint64 `json:"spills"`
	Promotions    uint64 `json:"promotions"`
	LostPages     uint64 `json:"lost_pages"`
	VerifyErrors  uint64 `json:"verify_errors"`
}

// TierStats is the machine-readable benchmark result.
type TierStats struct {
	Env BenchEnv `json:"env"`

	Hot  TierLatency `json:"pagein_hot"`
	Cold TierLatency `json:"pagein_cold"`
	Disk TierLatency `json:"pagein_disk"`

	TraceSamples int           `json:"trace_samples"`
	TraceTickMS  int64         `json:"trace_tick_ms"`
	Tiered       TierModeStats `json:"tiered"`
	Deny         TierModeStats `json:"deny_under_pressure"`
}

// Tier runs both measurements and writes BENCH_tier.json to the
// current directory.
func Tier() (*Table, error) {
	t, _, err := tierTo("BENCH_tier.json")
	return t, err
}

// tierTo is Tier with an explicit JSON destination ("" skips the
// file), returning the stats for assertions.
func tierTo(jsonPath string) (*Table, *TierStats, error) {
	stats := &TierStats{}
	if err := tierLatency(stats); err != nil {
		return nil, nil, err
	}
	trace := cluster.Week(cluster.Paper)
	const tick = 6 * time.Millisecond
	stats.TraceSamples = len(trace)
	stats.TraceTickMS = tick.Milliseconds()
	tiered, err := tierCollapse(trace, tick, false)
	if err != nil {
		return nil, nil, err
	}
	stats.Tiered = *tiered
	deny, err := tierCollapse(trace, tick, true)
	if err != nil {
		return nil, nil, err
	}
	stats.Deny = *deny

	if err := writeBenchJSON(jsonPath, &stats.Env, stats); err != nil {
		return nil, nil, err
	}

	denyRate := func(m TierModeStats) string {
		if m.AllocAttempts == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(m.AllocDenied)/float64(m.AllocAttempts))
	}
	t := &Table{
		ID:     "TIER",
		Title:  "Tiered store: pagein latency per tier, and §4.6 load collapse with demotion instead of denial",
		Header: []string{"measure", "hot", "cold (flate)", "disk (spill)"},
		Rows: [][]string{
			{"pagein mean", us(stats.Hot.MeanUS), us(stats.Cold.MeanUS), us(stats.Disk.MeanUS)},
			{"pages sampled", fmt.Sprint(stats.Hot.Pages), fmt.Sprint(stats.Cold.Pages), fmt.Sprint(stats.Disk.Pages)},
		},
		Notes: []string{
			fmt.Sprintf("disk tier charged a scaled synthetic seek model (%v avg seek)", tierDiskModel.AvgSeek),
			fmt.Sprintf("load collapse (weekly trace, %d samples at %v/sample):", stats.TraceSamples, tick),
			fmt.Sprintf("  tiered server: %d/%d allocs denied (%s), %d cold hits, %d disk hits, %d spills, %d lost",
				stats.Tiered.AllocDenied, stats.Tiered.AllocAttempts, denyRate(stats.Tiered),
				stats.Tiered.ColdHits, stats.Tiered.DiskHits, stats.Tiered.Spills, stats.Tiered.LostPages),
			fmt.Sprintf("  deny-under-pressure (paper §2.1): %d/%d allocs denied (%s)",
				stats.Deny.AllocDenied, stats.Deny.AllocAttempts, denyRate(stats.Deny)),
		},
	}
	if jsonPath != "" {
		t.Notes = append(t.Notes, "machine-readable result written to "+jsonPath)
	}
	return t, stats, nil
}

func us(v float64) string { return fmt.Sprintf("%.0fµs", v) }

// tierLatency measures Part A against a loopback TCP server.
func tierLatency(out *TierStats) error {
	srv := server.New(server.Config{
		Name:          "tier-srv",
		CapacityPages: 4096,
		OverflowFrac:  0.10,
		Spill:         true,
		DiskModel:     tierDiskModel,
	})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()

	conn, err := client.Dial(srv.Addr().String(), "tier-bench", "")
	if err != nil {
		return err
	}
	defer conn.Close()

	const nPages = 96
	data := page.NewBuf()
	for i := range data {
		data[i] = byte(i % 128) // compressible, like real heap pages
	}
	for i := uint64(0); i < nPages; i++ {
		if err := conn.PageOut(i, data); err != nil {
			return err
		}
	}
	// Force the population down: one page stays hot, one compressed,
	// the rest spill. Then widen the targets again so reads promote
	// without triggering compensating demotions (whose disk writes
	// would pollute the timings).
	st := srv.Store()
	st.SetTargets(1, 1)
	st.Enforce()
	st.SetTargets(0, 0)

	var sums [3]time.Duration
	var counts [3]int
	for _, k := range st.Keys() {
		tier, ok := st.TierOf(k)
		if !ok {
			continue
		}
		start := time.Now()
		got, err := conn.PageIn(k & (uint64(1)<<48 - 1))
		if err != nil {
			return err
		}
		if got.Checksum() != data.Checksum() {
			return fmt.Errorf("tier: page %d corrupted in tier %v", k, tier)
		}
		sums[tier] += time.Since(start)
		counts[tier]++
	}
	mean := func(t store.Tier) TierLatency {
		if counts[t] == 0 {
			return TierLatency{}
		}
		return TierLatency{
			Pages:  counts[t],
			MeanUS: float64(sums[t].Microseconds()) / float64(counts[t]),
		}
	}
	out.Hot = mean(store.TierHot)
	out.Cold = mean(store.TierCold)
	out.Disk = mean(store.TierDisk)
	return nil
}

// collapseLowWater is the free-memory fraction treated as pressure in
// the load-collapse schedule. The weekly trace never drops below
// ~0.53 of its peak (the paper: ">300 Mbytes ... at all times"), so
// the §4.6 working-hours dip sits between 0.53 and 0.65.
const collapseLowWater = 0.65

// tierCollapse runs Part B: one server driven by the weekly
// idle-memory trace, one client allocating and paging throughout.
// With deny set the server reproduces the paper's §4.6 cliff; without
// it the tiered store absorbs the pressure. The client loads most of
// its working set during the leading night samples — the paper's
// scenario of long-running jobs that acquired remote memory overnight
// and still hold it when the owners return.
func tierCollapse(trace []cluster.Sample, tick time.Duration, deny bool) (*TierModeStats, error) {
	nw := memnet.New()
	srv := server.New(server.Config{
		Name:              "collapse-srv",
		CapacityPages:     1024,
		OverflowFrac:      0.10,
		Spill:             true,
		ColdPages:         48,
		DenyUnderPressure: deny,
		PressureTrace:     trace,
		TraceTick:         tick,
		TraceLowWater:     collapseLowWater,
		Dial:              nw.DialTimeout,
	})
	ln, err := nw.Listen("collapse-srv:7077")
	if err != nil {
		return nil, err
	}
	srv.Serve(ln)
	defer srv.Close()

	conn, err := client.DialWithOptions("collapse-srv:7077", "collapse-client", "",
		client.DialOptions{Dial: nw.DialTimeout})
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	m := &TierModeStats{}
	mk := func(seed uint64) page.Buf {
		p := page.NewBuf()
		for i := range p {
			p[i] = byte((seed + uint64(i)) % 97) // compressible
		}
		return p
	}
	deadline := time.Now().Add(time.Duration(len(trace)) * tick)
	var next uint64
	// Overnight burst: grab most of the donated memory while the trace
	// is still in its quiet leading samples, so the working-hours dip
	// finds a resident set bigger than its hot target.
	const burst = 650
	const allocBudget = 880 // stay under the ~931-page reservable quota
	for next < burst {
		if granted, err := conn.Alloc(1); err != nil {
			return nil, err
		} else if granted == 0 {
			break // quota, not pressure: the night samples deny nothing
		}
		if err := conn.PageOut(next, mk(next)); err != nil {
			return nil, err
		}
		m.PageOuts++
		next++
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for time.Now().Before(deadline) {
		if next < allocBudget {
			m.AllocAttempts++
			granted, err := conn.Alloc(1)
			if err != nil {
				return nil, err
			}
			if granted == 0 {
				m.AllocDenied++ // the paper's collapse: swap space refused
			} else {
				if err := conn.PageOut(next, mk(next)); err != nil {
					return nil, err
				}
				m.PageOuts++
				next++
			}
		}
		if next > 0 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k := rng % next
			got, err := conn.PageIn(k)
			if err != nil {
				return nil, err
			}
			m.PageIns++
			if got.Checksum() != mk(k).Checksum() {
				m.VerifyErrors++
			}
		}
		time.Sleep(tick / 4)
	}
	// Final sweep: every page ever written must read back intact.
	for k := uint64(0); k < next; k++ {
		got, err := conn.PageIn(k)
		if err != nil {
			return nil, err
		}
		if got.Checksum() != mk(k).Checksum() {
			m.VerifyErrors++
		}
	}
	st := srv.Store().Stats()
	m.ColdHits = st.ColdHits
	m.DiskHits = st.DiskHits
	m.Demotions = st.Demotions
	m.Spills = st.Spills
	m.Promotions = st.Promotions
	m.LostPages = st.Lost
	return m, nil
}
