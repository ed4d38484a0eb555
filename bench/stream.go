package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
)

// fault is one step of a fault stream: page out a new version of
// victim, then page in target. Both index the caller's own slice of
// the working set.
type fault struct{ victim, target uint16 }

// streamOps is the length of each caller's pre-generated op stream;
// a caller that outruns it wraps around. At 20 k faults/s it lasts
// longer than any run the contract allows.
const streamOps = 1 << 19

// caller is one closed-loop faulting thread: it owns a contiguous
// slice of the working set and the op stream over it.
type caller struct {
	idx  int
	base page.ID
	ops  []fault
	pos  int
	out  page.Buf // the version being paged out

	// Samples of the round in progress.
	ins, outs latencies
	failed    int64
}

// stream is a fault-stream load generator over one pager. The whole
// op stream is generated from the seed before the pager sees any of
// it.
type stream struct {
	pager   *client.Pager
	or      *oracle
	callers []*caller
	tr      *tracer // nil on an untraced run
}

func newStream(seed uint64, pages, callers int) *stream {
	s := &stream{or: newOracle(seed, pages, callers)}
	per := pages / callers
	rng := splitmix(seed)
	for i := 0; i < callers; i++ {
		c := &caller{idx: i, base: page.ID(i * per), out: page.NewBuf(), ops: make([]fault, streamOps)}
		for j := range c.ops {
			r := rng.next()
			c.ops[j] = fault{victim: uint16(r % uint64(per)), target: uint16((r >> 32) % uint64(per))}
		}
		s.callers = append(s.callers, c)
	}
	return s
}

// populate pages out version 1 of every page in ID order: the fresh
// pageouts and ALLOC top-ups a real first touch pays.
func (s *stream) populate() error {
	buf := s.callers[0].out
	for id := range s.or.versions {
		v := s.or.next(page.ID(id), buf)
		if err := s.pager.PageOut(page.ID(id), buf); err != nil {
			return fmt.Errorf("populate page %d: %w", id, err)
		}
		s.or.commit(page.ID(id), v)
	}
	return nil
}

// step runs one fault of c and records its two latencies. The payload
// is generated and the page-in verified outside the timed calls.
func (s *stream) step(c *caller) time.Time {
	f := c.ops[c.pos%len(c.ops)]
	c.pos++
	victim, target := c.base+page.ID(f.victim), c.base+page.ID(f.target)

	v := s.or.next(victim, c.out)
	op := s.tr.beginOp()
	t0 := time.Now()
	err := s.pager.PageOut(victim, c.out)
	t1 := time.Now()
	s.tr.endOp(op, spanPageOut, t0, t1)
	c.outs = append(c.outs, int64(t1.Sub(t0)))
	if err != nil {
		c.fail("pageout", victim, err)
	} else {
		s.or.commit(victim, v)
	}

	op = s.tr.beginOp()
	t2 := time.Now()
	got, err := s.pager.PageIn(target)
	t3 := time.Now()
	s.tr.endOp(op, spanPageIn, t2, t3)
	c.ins = append(c.ins, int64(t3.Sub(t2)))
	switch {
	case err != nil:
		c.fail("pagein", target, err)
	case !s.or.matches(c.idx, target, got):
		c.fail("pagein", target, fmt.Errorf("wrong bytes for version %d", s.or.versions[target]))
	}
	page.Put(got)
	return t3
}

func (c *caller) fail(op string, id page.ID, err error) {
	if c.failed < 5 {
		fmt.Fprintf(os.Stderr, "bench: %s %v failed: %v\n", op, id, err)
	}
	c.failed++
}

// round is what one timed interval of a stream measured.
type round struct {
	ops    int       // page operations completed (pageins + pageouts)
	rate   float64   // page operations per second of time blocked in the pager, summed over callers
	ins    latencies // every pagein of the round, ns
	outs   latencies // every pageout of the round, ns
	failed int64     // operations that errored or returned wrong bytes
	use    usage     // CPU, allocation and pager-counter deltas
	// speed is the machine's speed over the round as a share of the
	// reference machine's (refclock.go); whoever ran the round sets it.
	speed float64
}

// run drives the stream for d with the given number of goroutines,
// each stepping its share of the callers round-robin, and returns
// what the interval measured.
func (s *stream) run(d time.Duration, goroutines int) round {
	for _, c := range s.callers {
		c.ins, c.outs, c.failed = c.ins[:0], c.outs[:0], 0
	}
	before := snapshot(s.pager)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for now := start; now.Before(deadline); {
				for i := g; i < len(s.callers); i += goroutines {
					now = s.step(s.callers[i])
				}
			}
		}(g)
	}
	wg.Wait()
	r := round{use: snapshot(s.pager).since(before)}
	for g := 0; g < goroutines; g++ {
		var ops int
		var busy int64
		for i := g; i < len(s.callers); i += goroutines {
			c := s.callers[i]
			ops += len(c.ins) + len(c.outs)
			for _, v := range c.ins {
				busy += v
			}
			for _, v := range c.outs {
				busy += v
			}
			r.ins = append(r.ins, c.ins...)
			r.outs = append(r.outs, c.outs...)
			r.failed += c.failed
		}
		r.ops += ops
		r.rate += float64(ops) / (float64(busy) / 1e9)
	}
	return r
}

// usage is a snapshot of process-wide cost counters and the pager's
// own: user+system CPU from getrusage (client and in-process servers
// together, the paper's pptime), heap allocations, and client.Stats.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pager   client.Stats
	pool    page.PoolStats
}

func snapshot(p *client.Pager) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
	if p != nil {
		u.pager = p.Stats()
	}
	u.pool, _ = page.Stats()
	return u
}

func (u usage) since(b usage) usage {
	d := usage{cpu: u.cpu - b.cpu, mallocs: u.mallocs - b.mallocs, bytes: u.bytes - b.bytes}
	d.pager.PageOuts = u.pager.PageOuts - b.pager.PageOuts
	d.pager.PageIns = u.pager.PageIns - b.pager.PageIns
	d.pager.NetTransfers = u.pager.NetTransfers - b.pager.NetTransfers
	d.pager.GCPasses = u.pager.GCPasses - b.pager.GCPasses
	d.pager.Retries = u.pager.Retries - b.pager.Retries
	d.pager.Timeouts = u.pager.Timeouts - b.pager.Timeouts
	d.pager.FallbackPageOuts = u.pager.FallbackPageOuts - b.pager.FallbackPageOuts
	d.pager.Recovered = u.pager.Recovered - b.pager.Recovered
	d.pager.Rehomed = u.pager.Rehomed - b.pager.Rehomed
	d.pool.Gets = u.pool.Gets - b.pool.Gets
	d.pool.Misses = u.pool.Misses - b.pool.Misses
	return d
}

// heapLiveMB is HeapAlloc after two forced collections: the second
// empties the sync.Pool victim caches, whose size is an accident of
// when the last background collection ran. The latency samples the
// bench itself holds are taken off: there are as many as operations
// completed, so left in they would charge a faster pager with more
// heap.
func heapLiveMB(samples ...latencies) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	held := 0
	for _, l := range samples {
		held += 8 * cap(l)
	}
	return float64(ms.HeapAlloc-uint64(held)) / (1 << 20)
}

// samplesOf lists the sample slices rounds hold.
func samplesOf(rounds []round) []latencies {
	out := make([]latencies, 0, 2*len(rounds))
	for _, r := range rounds {
		out = append(out, r.ins, r.outs)
	}
	return out
}
