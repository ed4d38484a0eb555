package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rmp/internal/chaos"
	"rmp/internal/client"
	"rmp/internal/cluster"
	"rmp/internal/membership"
	"rmp/internal/memnet"
	"rmp/internal/page"
	"rmp/internal/server"
)

// This file is the thousand-node scale harness: N pager clients × M
// memory servers, entirely on memnet, driven by the paper's synthetic
// weekly idle-memory trace (internal/cluster) while a chaos.Schedule
// injects failures. Two question sets are answered in one run:
//
//   - Reliability: four adversarial schedules (rolling restart,
//     asymmetric partition, flapping, correlated rack failure) each
//     run under the machine-checked invariants in
//     internal/chaos/invariants.go — no acknowledged page lost,
//     exposure windows bounded, clean teardown. The invariant verdict
//     is the pass/fail, not eyeballed counters.
//
//   - Scale: a sweep of N·M into the thousands measuring allocation
//     success rate (pageouts that landed in remote memory rather than
//     falling back to local disk), graded re-protection exposure
//     (Stats.ExposureAtTol), and p50/p99/p999 pagein latency.
//
// The machine-readable result lands in BENCH_scale.json; CI holds the
// invariants and the node-count floor over time.

// scaleAddr maps a schedule-level server name to its memnet address.
func scaleAddr(name string) string { return name + ":7077" }

// scaleCfg parametrizes one harness scenario.
type scaleCfg struct {
	name       string
	clients    int
	servers    int
	racks      int           // failure domains, round-robin over servers
	perClient  int           // size of each client's server subset
	schedule   string        // chaos.Schedule source (ticks = trace steps)
	seed       int64         // schedule '?' resolution + workload generator
	steps      int           // trace steps to drive (extended to fit the schedule)
	opsPerStep int           // baseline page operations per client per step
	keys       int           // working-set pages per client
	hbInterval time.Duration // heartbeat probe interval
	hbTimeout  time.Duration // per-probe budget (0 = 5×interval)
}

// scaleResult is the measured outcome of one scenario.
type scaleResult struct {
	events     []string // fired schedule events + harness warnings
	acked      int      // distinct pages acknowledged across all clients
	pageOuts   uint64
	fallbacks  uint64
	pageIns    uint64
	readErrs   uint64 // mid-chaos reads that failed (retried by redundancy at verify time)
	timeouts   uint64
	rebuilds   uint64
	hbDeaths   uint64
	lats       []time.Duration // successful pagein latencies
	exposure   [5]time.Duration
	invariants string // "pass" or the first violated invariant
	wall       time.Duration
}

// runScaleScenario builds the cluster, drives the trace with the
// schedule firing between steps, verifies the invariants, and tears
// everything down.
func runScaleScenario(cfg scaleCfg) (res *scaleResult, err error) {
	base := chaos.CaptureBaseline()
	start := time.Now()
	nw := memnet.New()
	res = &scaleResult{}

	names := make([]string, cfg.servers)
	idx := make(map[string]int, cfg.servers)
	racks := make(map[string][]string)
	srvs := make([]*server.Server, cfg.servers)
	// Capacity must cover reservation demand, not just occupancy: every
	// client chunk-reserves swap space (64 pages at a time) on each
	// subset server it places on, so a server that can hold the pages
	// but cannot grant the reservations denies allocations all the
	// same. Twice the chunk per client leaves room for re-grants after
	// flap restarts and for re-protection traffic.
	perSrvClients := cfg.clients*cfg.perClient/cfg.servers + 1
	capacity := perSrvClients*128 + 3*cfg.clients*cfg.keys/cfg.servers + 1024
	newSrv := func(i int) (*server.Server, error) {
		s := server.New(server.Config{
			Name:          names[i],
			CapacityPages: capacity,
			OverflowFrac:  0.10,
			Dial:          nw.DialerFrom(names[i]),
		})
		ln, lerr := nw.Listen(scaleAddr(names[i]))
		if lerr != nil {
			return nil, lerr
		}
		s.Serve(ln)
		return s, nil
	}
	var pagers []*client.Pager
	defer func() {
		if err == nil {
			return
		}
		for _, p := range pagers {
			p.Close()
		}
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range srvs {
		names[i] = fmt.Sprintf("srv%d", i)
		idx[names[i]] = i
		rack := fmt.Sprintf("r%d", i%cfg.racks)
		racks[rack] = append(racks[rack], names[i])
		nw.SetRack(scaleAddr(names[i]), rack)
		if srvs[i], err = newSrv(i); err != nil {
			return nil, err
		}
	}

	sched, err := chaos.Parse(cfg.schedule)
	if err != nil {
		return nil, fmt.Errorf("scale %s: schedule: %w", cfg.name, err)
	}
	tl, err := sched.Compile(cfg.seed, names, racks)
	if err != nil {
		return nil, fmt.Errorf("scale %s: compile: %w", cfg.name, err)
	}
	steps := cfg.steps
	if tl.MaxTick()+2 > steps {
		steps = tl.MaxTick() + 2
	}

	// The probe timeout is the false-positive guard: a dead memnet
	// server refuses dials instantly, so real crashes confirm at probe
	// cadence regardless, while a merely CPU-starved server gets the
	// full budget to answer. Tight timeouts here do not speed up real
	// detection — they only convert scheduler stalls into spurious
	// deaths, replica-ref wipes, and rebuild storms.
	hbTimeout := cfg.hbTimeout
	if hbTimeout <= 0 {
		hbTimeout = 5 * cfg.hbInterval
	}
	hb := membership.Config{Interval: cfg.hbInterval, Timeout: hbTimeout, Misses: 3}
	for i := 0; i < cfg.clients; i++ {
		cname := fmt.Sprintf("c%d", i)
		subset := make([]string, cfg.perClient)
		for j := range subset {
			subset[j] = scaleAddr(names[(i+j)%cfg.servers])
		}
		// Data-path budgets follow the same principle as the probe
		// timeout: on memnet a dead or partitioned server refuses dials
		// instantly, so failure detection never rides on a timeout —
		// and the adaptive deadline's default 50ms floor would turn the
		// first scheduler stall of every ops burst into spurious
		// timeouts, open breakers, view-deaths, and disk fallbacks.
		p, perr := client.New(client.Config{
			ClientName:       cname,
			Servers:          subset,
			Policy:           client.PolicyMirroring,
			Membership:       &hb,
			Dial:             nw.DialerFrom(cname),
			ReqTimeoutFloor:  2 * time.Second,
			RetryBudget:      10 * time.Second,
			BreakerThreshold: 32,
		})
		if perr != nil {
			err = fmt.Errorf("scale %s: client %d: %w", cfg.name, i, perr)
			return nil, err
		}
		pagers = append(pagers, p)
	}

	// confirm is how long a crash takes to surface through the failure
	// detector; settle waits at least this long after the last
	// disruption before trusting a zero RebuildPending reading.
	confirm := hb.Interval*time.Duration(hb.Misses+1) + hb.Timeout + 200*time.Millisecond
	var lastDisrupt time.Time
	settle := func() {
		if wait := confirm - time.Since(lastDisrupt); wait > 0 {
			time.Sleep(wait)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			var pending uint64
			degraded := 0
			for _, p := range pagers {
				pending += p.Stats().RebuildPending
				degraded += p.Redundancy().Degraded
			}
			if pending == 0 && degraded == 0 {
				return
			}
			if time.Now().After(deadline) {
				res.events = append(res.events, fmt.Sprintf(
					"settle timed out: %d rebuilds pending, %d pages degraded", pending, degraded))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	open := make(map[[2]string]bool)
	env := chaos.Env{
		Kill: func(name string) {
			nw.Kill(scaleAddr(name))
			srvs[idx[name]].Close()
			lastDisrupt = time.Now()
		},
		Restart: func(name string) {
			s, rerr := newSrv(idx[name])
			if rerr != nil {
				res.events = append(res.events, "restart "+name+": "+rerr.Error())
				return
			}
			srvs[idx[name]] = s
			lastDisrupt = time.Now()
		},
		Partition: func(from, to string) {
			nw.Partition(from, scaleAddr(to))
			open[[2]string{from, to}] = true
			lastDisrupt = time.Now()
		},
		Heal: func(from, to string) {
			nw.Heal(from, scaleAddr(to))
			delete(open, [2]string{from, to})
			lastDisrupt = time.Now()
		},
		Settle: settle,
	}

	// Per-client workload state; each goroutine touches only its own
	// entry, so the step loop needs no locks.
	type clientState struct {
		rng   *rand.Rand
		buf   page.Buf
		acked map[page.ID]uint64
		lats  []time.Duration
		readE uint64
	}
	states := make([]*clientState, cfg.clients)
	for i := range states {
		states[i] = &clientState{
			rng:   rand.New(rand.NewSource(cfg.seed + int64(i)*7919)),
			buf:   page.NewBuf(),
			acked: make(map[page.ID]uint64),
		}
	}

	// The weekly idle-memory trace modulates paging intensity: when the
	// cluster is busy (low free memory) local memory is scarce and
	// clients page harder — the paper's operating regime.
	trace := cluster.Week(cluster.Paper)
	stride := len(trace) / steps
	if stride < 1 {
		stride = 1
	}
	for step := 0; step < steps; step++ {
		res.events = append(res.events, tl.Fire(step, env)...)
		busy := 1 - trace[(step*stride)%len(trace)].FreeMB/cluster.Paper.TotalMB
		ops := int(float64(cfg.opsPerStep) * (0.3 + 1.4*busy))
		if ops < 1 {
			ops = 1
		}
		var wg sync.WaitGroup
		for i := range pagers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, st := pagers[i], states[i]
				for k := 0; k < ops; k++ {
					id := page.ID(st.rng.Intn(cfg.keys))
					if fill, ok := st.acked[id]; ok && st.rng.Intn(3) == 0 {
						t0 := time.Now()
						got, rerr := p.PageIn(id)
						if rerr != nil {
							st.readE++
							continue
						}
						st.lats = append(st.lats, time.Since(t0))
						page.Put(got)
						_ = fill
						continue
					}
					fill := st.rng.Uint64()
					st.buf.Fill(fill)
					if p.PageOut(id, st.buf) == nil {
						st.acked[id] = fill
					}
				}
			}(i)
		}
		wg.Wait()
	}

	// Quiesce: heal anything the schedule left open, wait for every
	// server to be revived in every client's view, then settle the last
	// re-protection passes.
	for k := range open {
		nw.Heal(k[0], scaleAddr(k[1]))
	}
	reviveBy := time.Now().Add(30 * time.Second)
	for {
		alive := true
		for _, p := range pagers {
			for _, info := range p.Survey() {
				if !info.Alive {
					alive = false
				}
			}
		}
		if alive {
			break
		}
		if time.Now().After(reviveBy) {
			res.events = append(res.events, "revival timed out: some server still dead in a client view")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	settle()

	// Invariant 1: every acknowledged page reads back byte-identical.
	inv := "pass"
	for i, p := range pagers {
		if nerr := chaos.NoLostPage(states[i].acked, p.PageIn); nerr != nil {
			inv = fmt.Sprintf("client c%d: %v", i, nerr)
			break
		}
	}

	disrupts := tl.Steps()
	for i, p := range pagers {
		st := p.Stats()
		res.pageOuts += st.PageOuts
		res.fallbacks += st.FallbackPageOuts
		res.pageIns += st.PageIns
		res.timeouts += st.Timeouts
		res.rebuilds += st.Rebuilds
		res.hbDeaths += st.HeartbeatDeaths
		for g := range st.ExposureAtTol {
			res.exposure[g] += st.ExposureAtTol[g]
		}
		res.acked += len(states[i].acked)
		res.readErrs += states[i].readE
		res.lats = append(res.lats, states[i].lats...)
	}

	// Invariant 2: exposure bounded. Each disruption exposes roughly
	// the clients whose subset touches the victim (perClient/servers of
	// them) for at most the detector confirmation plus one settle
	// budget; anything far beyond that means re-protection wedged.
	if inv == "pass" {
		affected := cfg.clients*cfg.perClient/cfg.servers + 1
		perWindow := confirm + 25*time.Second
		limit := time.Duration(disrupts+2) * time.Duration(affected) * perWindow
		if berr := chaos.BoundedExposure(res.exposure, [5]time.Duration{limit, limit, limit, limit, limit}); berr != nil {
			inv = berr.Error()
		}
	}

	// Teardown, then invariant 3: no goroutine or pool-buffer leaks.
	// The allowance covers buffers legitimately lost with the cluster:
	// pages resident in server stores at Close (acked × 2 mirror copies
	// plus re-protection copies) and payloads of timed-out requests.
	var cwg sync.WaitGroup
	for _, p := range pagers {
		cwg.Add(1)
		go func(p *client.Pager) { defer cwg.Done(); p.Close() }(p)
	}
	cwg.Wait()
	for _, s := range srvs {
		s.Close()
	}
	if inv == "pass" {
		allowance := uint64(res.acked)*4 + res.timeouts*2 + 8192
		if serr := base.CleanShutdown(10*time.Second, allowance); serr != nil {
			inv = serr.Error()
		}
	}
	res.invariants = inv
	res.wall = time.Since(start)
	return res, nil
}

// latPercentile reads the q-quantile (0..1) from a sorted latency
// slice, in microseconds.
func latPercentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// ScaleChaosRun is one adversarial schedule's outcome in the JSON.
type ScaleChaosRun struct {
	Name            string     `json:"name"`
	Clients         int        `json:"clients"`
	Servers         int        `json:"servers"`
	Schedule        string     `json:"schedule"`
	Seed            int64      `json:"seed"`
	Events          []string   `json:"events"`
	AckedPages      int        `json:"acked_pages"`
	ReadErrors      uint64     `json:"read_errors"`
	HeartbeatDeaths uint64     `json:"heartbeat_deaths"`
	Rebuilds        uint64     `json:"rebuilds"`
	ExposureMsAtTol [5]float64 `json:"exposure_ms_at_tol"`
	Invariants      string     `json:"invariants"`
	WallMs          int64      `json:"wall_ms"`
}

// ScalePoint is one N×M sweep measurement in the JSON.
type ScalePoint struct {
	Clients         int        `json:"clients"`
	Servers         int        `json:"servers"`
	Nodes           int        `json:"nodes"`
	AckedPages      int        `json:"acked_pages"`
	PageOuts        uint64     `json:"pageouts"`
	PageIns         uint64     `json:"pageins"`
	AllocSuccess    float64    `json:"alloc_success"`
	P50Micros       float64    `json:"p50_pagein_micros"`
	P99Micros       float64    `json:"p99_pagein_micros"`
	P999Micros      float64    `json:"p999_pagein_micros"`
	ExposureMsAtTol [5]float64 `json:"exposure_ms_at_tol"`
	Invariants      string     `json:"invariants"`
	WallMs          int64      `json:"wall_ms"`
}

// ScaleStats is the machine-readable BENCH_scale.json payload.
type ScaleStats struct {
	Env BenchEnv `json:"env"`

	Suite             []ScaleChaosRun `json:"suite"`
	Sweep             []ScalePoint    `json:"sweep"`
	MaxNodes          int             `json:"max_nodes"`
	AllInvariantsPass bool            `json:"all_invariants_pass"`
}

func exposureMs(e [5]time.Duration) (out [5]float64) {
	for i, d := range e {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// scaleSuite is the adversarial schedule set: the four failure shapes
// the ISSUE requires, each on a 48×8 cluster over 4 racks. Ticks are
// trace steps. '?' victims resolve from the seed at compile time.
var scaleSuite = []struct {
	name     string
	seed     int64
	schedule string
}{
	{"rolling-restart", 11, "@2 rolling every 3 down 1"},
	{"asym-partition", 12, "@2 partition c5 -> srv3 for 4\n@8 partition * -> srv6 for 4\n@13 settle"},
	{"flapping", 13, "@2 flap ? period 4 count 3"},
	{"rack-failure", 14, "@3 rackfail r1 for 5\n@10 rackfail r3 for 4\n@15 settle"},
}

// Scale runs the benchmark and writes BENCH_scale.json to the current
// directory.
func Scale() (*Table, error) {
	t, _, err := scaleBenchTo("BENCH_scale.json")
	return t, err
}

// scaleBenchTo is Scale with an explicit JSON destination ("" skips
// the file), returning the stats for assertions.
func scaleBenchTo(jsonPath string) (*Table, *ScaleStats, error) {
	stats := &ScaleStats{AllInvariantsPass: true}

	for _, sc := range scaleSuite {
		res, err := runScaleScenario(scaleCfg{
			name: sc.name, clients: 48, servers: 8, racks: 4, perClient: 4,
			schedule: sc.schedule, seed: sc.seed,
			steps: 16, opsPerStep: 3, keys: 8,
			hbInterval: 150 * time.Millisecond, hbTimeout: time.Second,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("suite %s: %w", sc.name, err)
		}
		if res.invariants != "pass" {
			stats.AllInvariantsPass = false
		}
		stats.Suite = append(stats.Suite, ScaleChaosRun{
			Name: sc.name, Clients: 48, Servers: 8,
			Schedule: sc.schedule, Seed: sc.seed, Events: res.events,
			AckedPages: res.acked, ReadErrors: res.readErrs,
			HeartbeatDeaths: res.hbDeaths, Rebuilds: res.rebuilds,
			ExposureMsAtTol: exposureMs(res.exposure),
			Invariants:      res.invariants, WallMs: res.wall.Milliseconds(),
		})
	}

	// The sweep holds the failure shape constant (two spaced flaps) and
	// scales N·M through ~1000 nodes. Larger clusters get gentler
	// heartbeats: probe load is conns/interval and the harness shares
	// one machine with the cluster it simulates, so both the cadence
	// and the per-probe budget grow with N·M to keep the detector's
	// false-positive rate at zero under scheduler contention.
	sweep := []struct {
		clients, servers int
		hb, hbTO         time.Duration
	}{
		{120, 12, 500 * time.Millisecond, 1500 * time.Millisecond},
		{480, 24, 800 * time.Millisecond, 2 * time.Second},
		{960, 48, 1200 * time.Millisecond, 2500 * time.Millisecond},
	}
	for _, pt := range sweep {
		res, err := runScaleScenario(scaleCfg{
			name:    fmt.Sprintf("sweep-%dx%d", pt.clients, pt.servers),
			clients: pt.clients, servers: pt.servers, racks: 4, perClient: 3,
			schedule: "@3 flap ? period 6 count 1\n@11 flap ? period 6 count 1",
			seed:     int64(1000 + pt.clients),
			steps:    18, opsPerStep: 4, keys: 10,
			hbInterval: pt.hb, hbTimeout: pt.hbTO,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("sweep %dx%d: %w", pt.clients, pt.servers, err)
		}
		if res.invariants != "pass" {
			stats.AllInvariantsPass = false
		}
		sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
		alloc := 1.0
		if res.pageOuts > 0 {
			alloc = float64(res.pageOuts-res.fallbacks) / float64(res.pageOuts)
		}
		point := ScalePoint{
			Clients: pt.clients, Servers: pt.servers, Nodes: pt.clients + pt.servers,
			AckedPages: res.acked, PageOuts: res.pageOuts, PageIns: res.pageIns,
			AllocSuccess:    alloc,
			P50Micros:       latPercentile(res.lats, 0.50),
			P99Micros:       latPercentile(res.lats, 0.99),
			P999Micros:      latPercentile(res.lats, 0.999),
			ExposureMsAtTol: exposureMs(res.exposure),
			Invariants:      res.invariants, WallMs: res.wall.Milliseconds(),
		}
		stats.Sweep = append(stats.Sweep, point)
		if point.Nodes > stats.MaxNodes {
			stats.MaxNodes = point.Nodes
		}
	}

	if err := writeBenchJSON(jsonPath, &stats.Env, stats); err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID:     "SCALE",
		Title:  "Thousand-node harness: chaos schedules under invariants, N×M scale sweep",
		Header: []string{"scenario", "nodes", "acked", "alloc ok", "p99 pagein", "exposure@0", "invariants", "wall"},
	}
	for _, r := range stats.Suite {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.Clients + r.Servers), fmt.Sprint(r.AckedPages), "-", "-",
			fmt.Sprintf("%.0fms", r.ExposureMsAtTol[0]), r.Invariants,
			fmt.Sprintf("%.1fs", float64(r.WallMs)/1e3),
		})
	}
	for _, p := range stats.Sweep {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("sweep %dx%d", p.Clients, p.Servers), fmt.Sprint(p.Nodes),
			fmt.Sprint(p.AckedPages),
			fmt.Sprintf("%.3f", p.AllocSuccess),
			fmt.Sprintf("%.0fµs", p.P99Micros),
			fmt.Sprintf("%.0fms", p.ExposureMsAtTol[0]),
			p.Invariants,
			fmt.Sprintf("%.1fs", float64(p.WallMs)/1e3),
		})
	}
	t.Notes = []string{
		"invariants per scenario: no acknowledged page lost, exposure bounded, no goroutine/pool-buffer leak at teardown",
		"suite schedules: rolling restart, asymmetric partition, flapping server, correlated rack failure (isolation, memory preserved)",
		"workload: weekly idle-memory trace modulates paging intensity; mirroring policy, per-client server subsets",
		"exposure@0 is total client-time at zero remaining crash tolerance (Stats.ExposureAtTol[0])",
	}
	if jsonPath != "" {
		t.Notes = append(t.Notes, "machine-readable result written to "+jsonPath)
	}
	return t, stats, nil
}
