package main

import (
	"fmt"
	"runtime"
	"time"

	"rmp/internal/apps"
	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/vm"
)

type workloadKind int

const (
	kindStream workloadKind = iota // seeded fault stream against a populated working set
	kindGauss                      // apps.Gauss over vm.Space over the pager
	kindCrash                      // fault stream with server 0 killed mid-stream
)

// workload is one row of the table in README.md; why is the reason it
// is in the benchmark.
type workload struct {
	name     string
	kind     workloadKind
	policy   client.Policy
	servers  int
	hotPages int // per-server HotPages; 0 leaves every stored page hot
	callers  int
	why      string
}

var workloads = []*workload{
	{name: "app_gauss", kind: kindGauss, policy: client.PolicyParityLogging, servers: 5, callers: 1,
		why: "the paper's own experiment: GAUSS over vm at 25% residency, the only workload where vm and blockdev do work, with a structured overwrite pattern"},
	{name: "fault_none", kind: kindStream, policy: client.PolicyNone, servers: 5, callers: 1,
		why: "floor of the conn mux, wire, TCP, server and store hot path with no policy work; policy, parity and rs changes must not move it"},
	{name: "fault_plog", kind: kindStream, policy: client.PolicyParityLogging, servers: 5, callers: 1,
		why: "parity logging in steady state under uniform-random overwrites, the log's fragmentation worst case: parity.Log, XOR and log GC do the work"},
	{name: "fault_rs_c2", kind: kindStream, policy: client.PolicyRS, servers: 6, callers: 2,
		why: "two concurrent callers on RS(4,2): rs encode and Pager.mu contention dominate, so only here can unlocking policies or a faster GF kernel show"},
	{name: "fault_mirror_cold", kind: kindStream, policy: client.PolicyMirroring, servers: 3, hotPages: 1024, callers: 1,
		why: "working set larger than the servers' hot tier: most pages live compressed, so store compress, promote and demote do the work"},
	{name: "crash_plog", kind: kindCrash, policy: client.PolicyParityLogging, servers: 5, callers: 1,
		why: "a server dies mid-stream: reconstruction, re-homing and degraded 3+1 groups, and what the application sees while it happens"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params is everything a run is a function of. The contract fixes
// seconds through BENCHMARK.json; the rest are constants outside the
// smoke test.
type params struct {
	seed    uint64
	seconds float64
	pages   int // working set of the fault streams
	gaussN  int // GAUSS matrix order
	cycles  int // crash_plog: populate-crash-verify cycles of the end-to-end pass
	trips   int // round trips a reference-clock measurement
}

const (
	defaultPages = 4096
	// GAUSS(400) is 1.3 MB, 157 pages, and about 2 s of work: small
	// enough that a run repeats it many times and reports the median
	// repetition, which one fixed run of GAUSS(600) (8 s) cannot.
	defaultGaussN = 400
	// completionFaults is the fixed work whose duration the fault
	// workloads report as completion_s; crashFaults the same across a
	// crash (kill → stall → that many faults in degraded mode).
	completionFaults = 20000
	crashFaults      = 2000
)

// gaussPinned is the result checksum of apps.NewGauss(n).Run.
var gaussPinned = map[int]uint64{400: 12880107557311335549}

func (p params) dur(share float64) time.Duration {
	return time.Duration(p.seconds * share * float64(time.Second))
}

// A round is 1/50 of the timed phase (0.5 s of the contract's 25 s):
// short and many, so that a slow episode of the machine shorter than
// half the run leaves the rounds' median alone (see Metric). Warm-up is
// warmupShare of the timed phase on top of it.
const (
	roundShare  = 1.0 / 50
	warmupShare = 0.1
)

// measured is what one execution of a workload yields, before it is
// folded into metrics.
type measured struct {
	ref *refClock
	// One per set-up performed, in reference seconds (see refclock.go)
	// and in wall-clock seconds.
	setups, setupsWall []float64
	rounds             []round
	// untimed are the stream intervals outside the timed rounds: warm-up
	// and, in crash_plog, the stream before each kill and the interval
	// around it. Their operations count as attempted and failed, and
	// towards what a failure costs; their latencies are dropped.
	untimed []round
	stalls  []float64 // crash_plog: longest single op after each kill, seconds
	// Seconds per fixed unit of work, one per round (app_gauss: per
	// repetition), on the reference clock and on the wall clock.
	complete, completeWall []float64
	stored                 float64 // pages held by live servers per live working-set page
	// freshTransfers is network transfers per pageout while the working
	// set was populated: every pageout fresh, none an overwrite.
	freshTransfers float64
	heapMB         float64
	attempted      int64
	failed         int64
	vm             vm.Stats    // app_gauss
	devSpan        float64     // app_gauss: Σ device call durations, reference seconds
	store          storeCounts // server-side store counters at the end
	layers         *layerTimes // traced runs
	wireBytes      uint64      // traced runs: bytes crossing client connections
}

// execute runs w once. rounds is the number of timed rounds (cycles
// for crash_plog, repetitions for app_gauss), goroutines
// how many threads step the stream's callers, tr the tracer or nil.
func execute(w *workload, p params, rounds, goroutines int, tr *tracer) (*measured, error) {
	ref, err := newRefClock(p.trips)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	m := &measured{ref: ref}
	switch w.kind {
	case kindGauss:
		err = m.executeGauss(w, p, rounds, tr)
	case kindCrash:
		err = m.executeCrash(w, p, rounds, tr)
	default:
		err = m.executeStream(w, p, rounds, goroutines, tr)
	}
	if err == nil {
		err = ref.err
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// addSetup records a set-up that took wall seconds between the
// reference-clock measurement before and the one it takes now.
func (m *measured) addSetup(before, wall float64) {
	m.setupsWall = append(m.setupsWall, wall)
	m.setups = append(m.setups, wall*speed(before, m.ref.trip()))
}

// addRound records a timed round that ended before the reference-clock
// measurement after; unscaled is the part of its completion time that
// is timer wait, work the fixed number of page operations the rest is
// the time of.
func (m *measured) addRound(r round, unscaled, work float64) {
	m.rounds = append(m.rounds, r)
	m.completeWall = append(m.completeWall, unscaled+work/r.rate)
	m.complete = append(m.complete, unscaled+work/r.rate*r.speed)
}

// setupStream starts a cluster and populates the working set; the
// duration of the two together is setup_s.
func (m *measured) setupStream(w *workload, p params, tr *tracer) (*cluster, *stream, error) {
	s := newStream(p.seed, p.pages, w.callers)
	s.tr = tr
	runtime.GC() // every set-up starts from a collected heap, whatever ran before it
	before := m.ref.trip()
	start := time.Now()
	c, err := startCluster(w, tr)
	if err != nil {
		return nil, nil, err
	}
	s.pager = c.pager
	if err := s.populate(); err != nil {
		c.close()
		return nil, nil, err
	}
	m.addSetup(before, time.Since(start).Seconds())
	st := c.pager.Stats()
	m.freshTransfers = float64(st.NetTransfers) / float64(st.PageOuts)
	return c, s, nil
}

// setupRepeats is how many times an untraced run sets up, back to back,
// before it measures the last of the clusters; setup_s is the median
// set-up. A traced run sets up once.
const setupRepeats = 9

func setupsFor(tr *tracer) int {
	if tr != nil {
		return 1
	}
	return setupRepeats
}

// setupStreamRepeated sets up setupsFor(tr) times and returns the last
// cluster, populated.
func (m *measured) setupStreamRepeated(w *workload, p params, tr *tracer) (c *cluster, s *stream, err error) {
	for i := 0; i < setupsFor(tr); i++ {
		if c != nil {
			c.close()
		}
		if c, s, err = m.setupStream(w, p, tr); err != nil {
			return nil, nil, err
		}
	}
	return c, s, nil
}

func (m *measured) executeStream(w *workload, p params, rounds, goroutines int, tr *tracer) error {
	c, s, err := m.setupStreamRepeated(w, p, tr)
	if err != nil {
		return err
	}
	defer c.close()

	// Warm-up: pools fill, RTT estimates settle, the log reaches steady state.
	m.addUntimed(s.run(p.dur(warmupShare), goroutines))
	tr.enable(true)
	before := m.ref.trip()
	for i := 0; i < rounds; i++ {
		r := s.run(p.dur(roundShare), goroutines)
		after := m.ref.trip()
		r.speed = speed(before, after)
		before = after
		m.addRound(r, 0, completionFaults*2)
	}
	tr.enable(false)
	m.heapMB = heapLiveMB(samplesOf(m.rounds)...)
	m.finish(c, s)
	return s.or.readBack(c.pager.PageIn)
}

// addUntimed keeps r's counts and drops its latency samples.
func (m *measured) addUntimed(r round) {
	r.ins, r.outs = nil, nil
	m.untimed = append(m.untimed, r)
}

// count sets attempted and failed from every interval the stream ran,
// timed or not: an operation that fails during warm-up or before a kill
// fails the run like any other.
func (m *measured) count() {
	m.attempted, m.failed = 0, 0
	for _, rs := range [][]round{m.untimed, m.rounds} {
		for _, r := range rs {
			m.attempted += int64(r.ops)
			m.failed += r.failed
		}
	}
}

// finish fills the end-of-run fields shared by the stream workloads.
func (m *measured) finish(c *cluster, s *stream) {
	m.count()
	m.store = c.storeCounts()
	m.stored = float64(m.store.pages) / float64(len(s.or.versions))
	m.traced(s.tr)
}

// traced takes the span breakdown of a traced run.
func (m *measured) traced(tr *tracer) {
	if tr != nil {
		lt := tr.layerTimes()
		m.layers = &lt
		m.wireBytes = tr.bytes.Load()
	}
}

// crashRounds is how many rounds of degraded-mode stream follow each
// kill. A cycle's timed part is the stall (2.4–2.7 s, 2.0 s of it
// RetryBudget) and these rounds, about seconds/crashCycleShare in all,
// and an end-to-end run makes that many cycles, at least minCycles.
const (
	crashRounds     = 4
	crashCycleShare = 5
	minCycles       = 3
)

// crashCycles is how many populate-crash-verify cycles fill a timed
// phase of the given length.
func crashCycles(seconds float64) int {
	return max(minCycles, int(seconds/crashCycleShare))
}

func (m *measured) executeCrash(w *workload, p params, cycles int, tr *tracer) error {
	rng := splitmix(p.seed ^ 0xc4a5)
	for i := 0; i < cycles; i++ {
		cp := p
		cp.seed = p.seed + uint64(i)
		// Each cycle sets up once: the cycles are the set-up repeats.
		c, s, err := m.setupStream(w, cp, tr)
		if err != nil {
			return err
		}
		// The crash instant is seeded, somewhere in a window of the
		// pre-crash stream: 0.5 to 1.5 s in, less only in the smoke test.
		lead, window := min(p.dur(0.05), time.Second/2), min(p.dur(0.1), time.Second)
		m.addUntimed(s.run(lead+time.Duration(rng.next()%uint64(window)), 1))
		killed := make(chan struct{})
		go func() {
			c.kill(0)
			close(killed)
		}()
		// The same stream keeps running. Its first short interval ends
		// with the op that hit the dead server, however long that took:
		// the stall is the longest time one op blocked the caller.
		hit := s.run(p.dur(0.01), 1)
		stall := 0.0
		for _, l := range []latencies{hit.ins, hit.outs} {
			for _, v := range l {
				stall = max(stall, float64(v)/1e9)
			}
		}
		m.stalls = append(m.stalls, stall)
		m.addUntimed(hit) // counted as attempted, not as degraded-mode samples
		tr.enable(true)
		before := m.ref.trip()
		for j := 0; j < crashRounds; j++ {
			r := s.run(p.dur(roundShare), 1)
			after := m.ref.trip()
			r.speed = speed(before, after)
			before = after
			m.addRound(r, stall, crashFaults*2) // the stall is timer wait
		}
		tr.enable(false)
		<-killed
		m.heapMB = heapLiveMB(samplesOf(m.rounds)...)
		m.finish(c, s)
		err = s.or.readBack(c.pager.PageIn)
		c.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// minGaussRuns is the fewest repetitions an end-to-end app_gauss run
// makes, however short its timed phase.
const minGaussRuns = 3

// executeGauss runs GAUSS repeats times, each on a cluster of its own,
// so that completion_s and setup_s are medians over repetitions like
// any other value over rounds. repeats 0 is the end-to-end pass: as
// many repetitions as fit the timed phase, at least minGaussRuns.
func (m *measured) executeGauss(w *workload, p params, repeats int, tr *tracer) error {
	begin := time.Now()
	for i := 0; ; i++ {
		if repeats > 0 && i == repeats {
			break
		}
		if repeats == 0 && i >= minGaussRuns {
			// Stop when one more repetition would overrun the timed phase.
			if spent := time.Since(begin); spent+spent/time.Duration(i) > p.dur(1) {
				break
			}
		}
		if err := m.gaussOnce(w, p, tr); err != nil {
			return err
		}
	}
	return nil
}

// firstTouch writes to every page of s once and flushes.
func firstTouch(s *vm.Space) error {
	for off := int64(0); off < s.Size(); off += page.Size {
		if err := s.SetFloat64(off/8, 0); err != nil {
			return err
		}
	}
	return s.Flush()
}

// gaussOnce is one repetition: set-up, the app's run, read-back.
func (m *measured) gaussOnce(w *workload, p params, tr *tracer) error {
	app := apps.NewGauss(p.gaussN)
	var c *cluster
	var dev *tracedDevice
	var space *vm.Space
	// Set-up is what it is on the streams: cluster start, dial and
	// first-touch population, here one write to every page of the
	// matrix through vm, so 3/4 of them are paged out fresh; done
	// setupsFor(tr) times, the last cluster being the one measured. The
	// app then fills the matrix itself, over those pages.
	for i := 0; i < setupsFor(tr); i++ {
		if c != nil {
			c.close()
		}
		runtime.GC()
		before := m.ref.trip()
		start := time.Now()
		var err error
		if c, err = startCluster(w, tr); err != nil {
			return err
		}
		dev = newTracedDevice(c.pager, tr, m.ref)
		if space, err = vm.New(app.Bytes(), app.Bytes()/4, dev); err == nil {
			err = firstTouch(space)
		}
		if err != nil {
			c.close()
			return err
		}
		m.addSetup(before, time.Since(start).Seconds())
	}
	defer c.close()

	tr.enable(true)
	dev.start()
	sum, err := app.Run(space)
	if err == nil {
		err = space.Flush()
	}
	tr.enable(false)
	if err != nil {
		return fmt.Errorf("GAUSS(%d): %w", p.gaussN, err)
	}
	if want, ok := gaussPinned[p.gaussN]; ok && sum != want {
		return fmt.Errorf("GAUSS(%d) checksum %d, pinned %d", p.gaussN, sum, want)
	}
	dev.cut() // the tail, shorter than a round
	m.rounds = append(m.rounds, dev.rounds...)
	m.completeWall = append(m.completeWall, dev.wall)
	m.complete = append(m.complete, dev.refWall)
	m.count()
	// The repetitions are the same work, so the last one's end-of-run
	// figures stand for all.
	m.heapMB = heapLiveMB(append(samplesOf(m.rounds), dev.ins, dev.outs)...)
	m.vm, m.devSpan = space.Stats(), dev.refSpan
	m.store = c.storeCounts()
	m.stored = float64(m.store.pages) / float64(len(dev.sums))
	m.traced(tr)

	// Read-back: every block the app wrote, through the pager, against
	// the checksum of its last acknowledged write.
	want := make(map[page.ID]uint64, len(dev.sums))
	for bn, sum := range dev.sums {
		want[page.ID(bn)] = uint64(sum)
	}
	return readBack(want, c.pager.PageIn, func(id page.ID, got page.Buf) bool {
		return got.Checksum() == dev.sums[int64(id)]
	})
}
