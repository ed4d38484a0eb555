package main

import (
	"io"
	"net"
	"time"

	"rmp/internal/page"
)

// The reference clock. The machine this benchmark is run on — a few
// vCPUs of a shared host — changes speed under it: for minutes at a
// time everything that misses the cache (system calls, socket copies,
// map lookups) takes 30–55 % longer, and no statistic taken inside a
// run sees through a slowdown that outlasts the run. So the two timings
// BENCHMARK.json bounds, completion_s and setup_s, are taken in
// reference seconds: every timed interval (a round, a set-up) is
// bracketed by defaultRefTrips round trips of one 8 KB page over a loopback
// TCP connection of the bench's own — the work a page fault is made of,
// with none of the program under test in it — and its wall time is
// multiplied by refNominalRT over the round trip measured around it.
// On the quiet build machine that factor is 1. Across a change of the
// machine's speed that moved fault_plog's wall-clock completion time by
// 47 % of its median between runs, its reference-clock one moved by 3 %
// (README.md has the runs). The wall-clock values are printed beside
// them. Timer waits — crash_plog's stall is 2.0 s of RetryBudget — are
// not scaled: a slower CPU does not lengthen them.
const (
	refNominalRT    = 8.9e-6 // seconds per round trip on the quiet build machine
	defaultRefTrips = 1000   // 9 ms a measurement; the smoke test makes fewer
)

type refClock struct {
	c         net.Conn
	out, back page.Buf
	n         int // round trips a measurement
	err       error
	trips     []float64 // every measurement, seconds per round trip
}

func newRefClock(n int) (*refClock, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	peer, err := ln.Accept()
	if err != nil {
		c.Close()
		return nil, err
	}
	go func() {
		defer peer.Close()
		buf := page.NewBuf()
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return // the clock was closed
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	return &refClock{c: c, out: page.NewBuf(), back: page.NewBuf(), n: n}, nil
}

// close ends the echo goroutine with the connection.
func (r *refClock) close() { r.c.Close() }

// trip measures now: seconds per round trip over r.n of them.
func (r *refClock) trip() float64 {
	start := time.Now()
	for i := 0; i < r.n && r.err == nil; i++ {
		if _, r.err = r.c.Write(r.out); r.err == nil {
			_, r.err = io.ReadFull(r.c, r.back)
		}
	}
	rt := time.Since(start).Seconds() / float64(r.n)
	r.trips = append(r.trips, rt)
	return rt
}

// speed is the machine's speed over an interval bracketed by the
// measurements before and after, as a share of the reference machine's:
// wall seconds times it are reference seconds.
func speed(before, after float64) float64 {
	return refNominalRT / ((before + after) / 2)
}
