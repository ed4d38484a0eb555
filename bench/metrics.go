package main

import (
	"fmt"
	"math"
	"time"

	"rmp/internal/apps"
	"rmp/internal/blockdev"
	"rmp/internal/vm"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// metricSet holds one value per declared metric; those a workload has
// nothing to say about stay 0.
type metricSet map[string]Metric

func newMetricSet(defs []metricDef) metricSet {
	s := make(metricSet, len(defs))
	for _, d := range defs {
		s[d.name] = Metric{Unit: d.unit}
	}
	return s
}

func (s metricSet) set(name string, v float64) {
	m := s[name]
	m.Value = v
	s[name] = m
}

// BENCHMARK.json is the one list of end-to-end metrics that carry a
// bound: the bench emits every one of them on every workload, as the
// contract requires, and -compare judges those and no others (the smoke
// test holds what endToEnd emits to that list). They are the ones whose
// spread over ten runs stays inside the bound on the machine the
// benchmark was built on: completion time and the counts.
//
// reportedDefs are end-to-end figures printed and written beside them
// for the reader, with no bound anywhere. The two bounded timings are on
// the reference clock (refclock.go); completion_wall_s and setup_wall_s
// are the same intervals on the wall clock, ref_echo_us the reference
// round trip measured around them (8.9 on the quiet build machine), and
// everything below them is wall clock too. pages_per_s is here because
// on the streams completion_wall_s is that number inverted; the
// latencies and the CPU time because their run-to-run spread (2–46 %,
// the machine's own) is not safely inside the contract's widest bound;
// crash_stall_s because only one workload has it (it is 4/5 of that
// workload's completion_s); fail_ratio because it is 0 on every correct
// run, and reaches the contract as failed / attempted.
var reportedDefs = []metricDef{
	{"completion_wall_s", "s"},
	{"setup_wall_s", "s"},
	{"ref_echo_us", "us"},
	{"pages_per_s", "1/s"},
	{"pagein_p50_us", "us"},
	{"pageout_p50_us", "us"},
	{"pagein_p99_us", "us"},
	{"cpu_us_per_page", "us"},
	{metricCrashStall, "s"},
	{metricFailRatio, "ratio"},
}

const (
	metricFailRatio  = "fail_ratio"
	metricCrashStall = "crash_stall_s"
)

// endToEnd folds one untraced execution into the end-to-end metrics.
func endToEnd(m *measured) map[string]Metric {
	// A round with no sample of an operation (app_gauss pages nothing in
	// while the matrix is first touched) has no percentile of it; it is
	// left out.
	per := func(f func(r round) float64) []float64 {
		out := make([]float64, 0, len(m.rounds))
		for _, r := range m.rounds {
			if v := f(r); !math.IsNaN(v) && !math.IsInf(v, 0) {
				out = append(out, v)
			}
		}
		return out
	}
	lower := func(unit string, f func(r round) float64) Metric { return overRounds(per(f), unit, false) }
	var all usage
	var ops int
	for _, r := range m.rounds {
		ops += r.ops
		all.mallocs += r.use.mallocs
		all.pager.NetTransfers += r.use.pager.NetTransfers
		all.pager.PageIns += r.use.pager.PageIns
		all.pager.PageOuts += r.use.pager.PageOuts
	}
	trips := make([]float64, len(m.ref.trips))
	for i, rt := range m.ref.trips {
		trips[i] = rt * 1e6
	}
	out := map[string]Metric{
		"setup_s":           overRounds(m.setups, "s", false),
		"completion_s":      overRounds(m.complete, "s", false),
		"setup_wall_s":      overRounds(m.setupsWall, "s", false),
		"completion_wall_s": overRounds(m.completeWall, "s", false),
		"ref_echo_us":       overRounds(trips, "us", false),
		"pages_per_s":       overRounds(per(func(r round) float64 { return r.rate }), "1/s", true),
		"pagein_p50_us":     lower("us", func(r round) float64 { return r.ins.quantileMicros(0.5) }),
		"pageout_p50_us":    lower("us", func(r round) float64 { return r.outs.quantileMicros(0.5) }),
		"pagein_p99_us":     lower("us", func(r round) float64 { return r.ins.quantileMicros(0.99) }),
		"cpu_us_per_page": lower("us", func(r round) float64 {
			return float64(r.use.cpu) / 1e3 / float64(r.ops)
		}),
		// Counts are taken over all rounds together: interference does
		// not change them, and in app_gauss they differ by phase.
		"allocs_per_page":           {Value: float64(all.mallocs) / float64(ops), Unit: "count"},
		"net_transfers_per_pageout": {Value: float64(all.pager.NetTransfers-all.pager.PageIns) / float64(all.pager.PageOuts), Unit: "count"},
		"stored_pages_per_page":     {Value: m.stored, Unit: "count"},
		"heap_live_mb":              {Value: m.heapMB, Unit: "MB"},
		metricFailRatio:             {Value: float64(m.failed) / float64(m.attempted), Unit: "ratio"},
	}
	// Each round's p99 has this many samples behind it.
	p99 := out["pagein_p99_us"]
	p99.Samples = len(m.rounds[0].ins)
	out["pagein_p99_us"] = p99
	if len(m.stalls) > 0 {
		out[metricCrashStall] = overRounds(m.stalls, "s", false)
	}
	return out
}

var perLayerDefs = []metricDef{
	// Self times from the traced run (µs, medians over ops) and what
	// the tracing cost.
	{"client.pagein_self_us", "us"},
	{"client.pageout_self_us", "us"},
	{"transport.pagein_self_us", "us"},
	{"transport.pageout_self_us", "us"},
	{"server.pagein_service_us", "us"},
	{"server.pageout_service_us", "us"},
	{"transport.bytes_per_page", "B"},
	{"trace.overhead_frac", "ratio"},
	{"trace.pagein_p50_us", "us"},
	{"trace.pageout_p50_us", "us"},
	// app_gauss only: where completion_s goes.
	{"apps.compute_s", "s"},
	{"vm.fault_overhead_s", "s"},
	{"blockdev.span_s", "s"},
	// Counts at the same boundaries, from the untraced base run.
	{"client.fresh_transfers_per_pageout", "count"},
	{"client.gc_passes_per_pageout", "count"},
	{"client.retries", "count"},
	{"client.timeouts", "count"},
	{"client.disk_fallback_pageouts", "count"},
	{"client.recovered_pages", "count"},
	{"client.rehomed_pages", "count"},
	{"client.c2_scaling", "ratio"},
	{"vm.faults", "count"},
	{"vm.pageins", "count"},
	{"vm.pageouts", "count"},
	{"store.hot_pages", "count"},
	{"store.cold_pages", "count"},
	{"store.cold_hit_ratio", "ratio"},
	{"store.moves_per_page", "count"},
	{"store.fullest_server_share", "ratio"},
	{"page.pool_miss_ratio", "ratio"},
	// The base run's own end-to-end figures, so that the layer sums can
	// be checked against numbers taken minutes, not runs, apart.
	{"loadgen.pages_per_s", "1/s"},
	{"loadgen.completion_s", "s"},
	{"loadgen.pagein_p50_us", "us"},
	{"loadgen.pageout_p50_us", "us"},
	{"loadgen.pagein_p99_us", "us"},
	{"loadgen.pageout_p99_us", "us"},
	{"loadgen.cpu_us_per_page", "us"},
	{"loadgen.alloc_bytes_per_page", "B"},
	{"loadgen.crash_stall_s", "s"},
}

// traceRounds is how many timed rounds the base and the traced
// execution of a per-layer run each do (crash_plog: one cycle each).
const traceRounds = 20

// perLayer runs w three ways — untraced with one thread (the base),
// traced with one thread, and for a two-caller workload untraced with
// two — and folds them, with the isolated layer drives, into the
// per-layer metrics. tr receives the traced run's spans.
func perLayer(w *workload, p params, tr *tracer, drive time.Duration) (map[string]Metric, *measured, error) {
	rounds := traceRounds
	if w.kind != kindStream {
		rounds = 1 // one crash cycle, one repetition of GAUSS
	}
	base, err := execute(w, p, rounds, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := execute(w, p, rounds, 1, tr)
	if err != nil {
		return nil, nil, err
	}

	out := newMetricSet(perLayerDefs)
	set := out.set

	lt := traced.layers
	set("client.pagein_self_us", lt.client[spanPageIn])
	set("client.pageout_self_us", lt.client[spanPageOut])
	set("transport.pagein_self_us", lt.transport[spanPageIn])
	set("transport.pageout_self_us", lt.transport[spanPageOut])
	set("server.pagein_service_us", lt.server[spanPageIn])
	set("server.pageout_service_us", lt.server[spanPageOut])
	var tracedOps int
	for _, r := range traced.rounds {
		tracedOps += r.ops
	}
	set("transport.bytes_per_page", float64(traced.wireBytes)/float64(tracedOps))
	e2eBase, e2eTraced := endToEnd(base), endToEnd(traced)
	set("trace.overhead_frac", 1-refRate(traced)/refRate(base))
	set("trace.pagein_p50_us", e2eTraced["pagein_p50_us"].Value)
	set("trace.pageout_p50_us", e2eTraced["pageout_p50_us"].Value)

	var use usage
	var ops int
	var outs latencies
	for _, r := range base.rounds {
		ops += r.ops
		use.bytes += r.use.bytes
		use.pager.PageOuts += r.use.pager.PageOuts
		use.pager.GCPasses += r.use.pager.GCPasses
		use.pool.Gets += r.use.pool.Gets
		use.pool.Misses += r.use.pool.Misses
		outs = append(outs, r.outs...)
	}
	// What a failure costs is counted over the whole stream, the kill
	// and the stall included, not only over the degraded-mode rounds.
	for _, rs := range [][]round{base.untimed, base.rounds} {
		for _, r := range rs {
			use.pager.Retries += r.use.pager.Retries
			use.pager.Timeouts += r.use.pager.Timeouts
			use.pager.FallbackPageOuts += r.use.pager.FallbackPageOuts
			use.pager.Recovered += r.use.pager.Recovered
			use.pager.Rehomed += r.use.pager.Rehomed
		}
	}
	set("client.fresh_transfers_per_pageout", base.freshTransfers)
	set("client.gc_passes_per_pageout", float64(use.pager.GCPasses)/float64(use.pager.PageOuts))
	set("client.retries", float64(use.pager.Retries))
	set("client.timeouts", float64(use.pager.Timeouts))
	set("client.disk_fallback_pageouts", float64(use.pager.FallbackPageOuts))
	set("client.recovered_pages", float64(use.pager.Recovered))
	set("client.rehomed_pages", float64(use.pager.Rehomed))
	set("vm.faults", float64(base.vm.Faults))
	set("vm.pageins", float64(base.vm.PageIns))
	set("vm.pageouts", float64(base.vm.PageOuts))
	set("store.hot_pages", float64(base.store.hot))
	set("store.cold_pages", float64(base.store.cold))
	if base.store.gets > 0 {
		set("store.cold_hit_ratio", float64(base.store.coldHits)/float64(base.store.gets))
	}
	set("store.moves_per_page", float64(base.store.moves)/float64(base.attempted))
	set("store.fullest_server_share", float64(base.store.fullest)/float64(base.store.pages))
	if use.pool.Gets > 0 {
		set("page.pool_miss_ratio", float64(use.pool.Misses)/float64(use.pool.Gets))
	}
	set("loadgen.pages_per_s", e2eBase["pages_per_s"].Value)
	set("loadgen.completion_s", e2eBase["completion_s"].Value)
	set("loadgen.pagein_p50_us", e2eBase["pagein_p50_us"].Value)
	set("loadgen.pageout_p50_us", e2eBase["pageout_p50_us"].Value)
	set("loadgen.pagein_p99_us", e2eBase["pagein_p99_us"].Value)
	set("loadgen.pageout_p99_us", outs.quantileMicros(0.99))
	set("loadgen.cpu_us_per_page", e2eBase["cpu_us_per_page"].Value)
	set("loadgen.alloc_bytes_per_page", float64(use.bytes)/float64(ops))
	if len(base.stalls) > 0 {
		set("loadgen.crash_stall_s", median(base.stalls))
	}

	if w.callers > 1 {
		par, err := execute(w, p, rounds, w.callers, nil)
		if err != nil {
			return nil, nil, err
		}
		set("client.c2_scaling", refRate(par)/refRate(base))
		base.attempted += par.attempted
		base.failed += par.failed
	}

	if w.kind == kindGauss {
		// Where completion_s goes: the app's own compute (fully
		// resident over a MemDevice), what vm adds at 25 % residency
		// (same device, so no pager), and the device calls of the live
		// run. All three are in reference seconds, and should add up to
		// the base run's completion_s.
		compute, err := gaussOnMem(p, 1)
		if err != nil {
			return nil, nil, err
		}
		faulting, err := gaussOnMem(p, 4)
		if err != nil {
			return nil, nil, err
		}
		set("apps.compute_s", compute)
		set("vm.fault_overhead_s", faulting-compute)
		set("blockdev.span_s", base.devSpan)
	}

	for name, m := range layerDrives(drive) {
		out[name] = m
	}
	base.attempted += traced.attempted
	base.failed += traced.failed
	return out, base, nil
}

// refRate is m's pages_per_s on the reference clock: two executions
// minutes apart compare by it, whatever the machine did in between.
func refRate(m *measured) float64 {
	v := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		v[i] = r.rate / r.speed
	}
	return median(v)
}

// gaussOnMem times GAUSS over a MemDevice with 1/residentDiv of its
// footprint resident, in reference seconds: the run is one interval.
func gaussOnMem(p params, residentDiv int64) (float64, error) {
	ref, err := newRefClock(p.trips)
	if err != nil {
		return 0, err
	}
	defer ref.close()
	app := apps.NewGauss(p.gaussN)
	space, err := vm.New(app.Bytes(), app.Bytes()/residentDiv, blockdev.NewMemDevice())
	if err != nil {
		return 0, err
	}
	before := ref.trip()
	start := time.Now()
	sum, err := app.Run(space)
	if err == nil {
		err = space.Flush()
	}
	wall := time.Since(start).Seconds()
	if err == nil {
		err = ref.err
	}
	if err != nil {
		return 0, err
	}
	if want, ok := gaussPinned[p.gaussN]; ok && sum != want {
		return 0, fmt.Errorf("GAUSS(%d) on MemDevice: checksum %d, pinned %d", p.gaussN, sum, want)
	}
	return wall * speed(before, ref.trip()), nil
}
