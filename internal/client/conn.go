// Package client implements the Remote Memory Pager (RMP): the
// client side of the paper's system. It connects to remote memory
// servers over TCP, forwards pagein/pageout requests to them under a
// configurable reliability policy, falls back to the local disk when
// no server has free memory, migrates pages away from loaded servers,
// and reconstructs lost pages after a server crash.
//
// This file holds Conn, the low-level request channel to one server.
// Conn is safe for concurrent use. After the HELLO handshake it is a
// multiplexer: a caller writes its own tagged request (and whatever
// other callers queued meanwhile) under the write lock, a reader
// goroutine demuxes acks to per-request channels by id, so many
// requests are in flight on one connection and a late or timed-out ack
// is discarded by id instead of poisoning the stream.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rmp/internal/page"
	"rmp/internal/wire"
)

// Conn is one authenticated protocol connection to a remote memory
// server.
type Conn struct {
	conn net.Conn
	addr string

	// dl bounds every round trip with an adaptive deadline derived
	// from the RTT estimator (see Deadlines). Set before first use;
	// immutable afterwards.
	dl Deadlines

	// w is the shared write half: callers queue their request frames
	// into it and flush them themselves under its write lock. Created
	// by the dial; immutable afterwards.
	w *wire.ConnWriter
	// done is closed exactly once when the mux dies (transport error
	// or Close); it unblocks every waiter. Created by the dial;
	// immutable afterwards.
	done     chan struct{}
	doneOnce sync.Once

	// muxMu protects the demux table. It is never held across I/O.
	muxMu sync.Mutex
	// nextID is the last request id issued. Ids increase monotonically
	// and wrap at 2^32, so an id is never reused while 4 billion
	// requests are outstanding — a late ack for a timed-out request
	// finds no (or at worst a long-gone) entry and is dropped.
	// Guarded by muxMu.
	nextID uint32
	// pending maps in-flight request ids to their 1-buffered reply
	// channels. Guarded by muxMu.
	pending map[uint32]chan *wire.Msg
	// muxErr is the first transport error that killed the mux; nil
	// while healthy. Guarded by muxMu.
	muxErr error

	// lateDrops counts acks discarded because no request was pending
	// under their id (late replies to timed-out requests).
	lateDrops atomic.Uint64

	// pressureMu protects the advisory state latched off acks.
	pressureMu sync.Mutex
	// pressured is latched when any ack arrives with FlagPressure set;
	// the pager polls and clears it to drive migration. Guarded by
	// pressureMu.
	pressured bool
	// draining is latched when any ack arrives with FlagDrain set: the
	// server asked to leave and wants its pages migrated out. Unlike
	// pressure it is not cleared on read — a draining server stays
	// draining until the pager finishes evacuating it. Guarded by
	// pressureMu.
	draining bool
	// serverFree is the last free-page count reported by the server
	// (HELLO_ACK and LOAD_ACK carry it). Guarded by pressureMu.
	serverFree uint32

	// rttNanos is an EWMA of request round-trip time (srtt). The
	// paper's §5 network-load adaptation ("measuring the time it takes
	// to satisfy a request and using a threshold") and its
	// heterogeneous-network placement both key off this.
	rttNanos atomic.Int64
	// rttvarNanos is the smoothed mean RTT deviation (Jacobson): the
	// request deadline is srtt + 4·rttvar, clamped and padded per byte.
	rttvarNanos atomic.Int64
}

// rttAlpha is the EWMA weight of a new sample (1/8, classic TCP).
const rttAlpha = 8

// rttBeta is the deviation-EWMA weight of a new sample (1/4, classic
// TCP/Jacobson).
const rttBeta = 4

// DialTimeout is how long Dial waits for TCP establishment.
const DialTimeout = 5 * time.Second

// Deadlines parametrizes the adaptive per-request deadline: every
// round trip is bounded by
//
//	clamp(srtt + 4·rttvar, Floor, Ceil) + PerByte·payloadBytes
//
// so a wedged server (TCP alive, process black-holed) turns into a
// bounded timeout error instead of an indefinitely hung page fault.
// The per-byte allowance keeps large transfers (8 KB pages, pipelined
// batches) from being strangled by an estimate learned on small
// requests. Before the first sample the deadline is Ceil.
type Deadlines struct {
	// Floor is the minimum deadline; it absorbs scheduler noise and
	// GC pauses that the EWMA has not seen. Default 50ms.
	Floor time.Duration
	// Ceil caps the adaptive deadline (and is the whole deadline while
	// the connection has no RTT estimate yet). Default 5s.
	Ceil time.Duration
	// PerByte is added per payload byte on top of the clamped
	// estimate. Default 1µs (≈8ms per 8 KB page, a 1996-class link).
	PerByte time.Duration
}

// DefaultDeadlines returns the default deadline parameters.
func DefaultDeadlines() Deadlines {
	return Deadlines{Floor: 50 * time.Millisecond, Ceil: 5 * time.Second, PerByte: time.Microsecond}
}

func (d Deadlines) withDefaults() Deadlines {
	def := DefaultDeadlines()
	if d.Floor <= 0 {
		d.Floor = def.Floor
	}
	if d.Ceil <= 0 {
		d.Ceil = def.Ceil
	}
	if d.Ceil < d.Floor {
		d.Ceil = d.Floor
	}
	if d.PerByte <= 0 {
		d.PerByte = def.PerByte
	}
	return d
}

// ErrReqTimeout marks a round trip that missed its adaptive deadline.
// The stream stays framed — the late ack is discarded by id when it
// eventually arrives — so the Conn remains usable unless Broken.
// errors.Is(err, ErrReqTimeout) identifies the case.
var ErrReqTimeout = errors.New("client: request deadline exceeded")

// errMuxClosed reports a request issued on (or in flight over) a
// multiplexed connection that has been closed or has died; the
// original transport error, when there is one, is wrapped.
var errMuxClosed = errors.New("client: connection closed")

// DialFunc opens the transport connection to a server address within
// timeout. The default is TCP (net.DialTimeout); tests inject an
// in-memory transport (internal/memnet) here.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// DialOptions bundles the optional knobs of DialWithOptions.
type DialOptions struct {
	// Timeout bounds transport establishment. 0 means DialTimeout.
	Timeout time.Duration
	// Deadlines parametrizes the adaptive per-request deadline.
	// Zero-valued fields take their defaults.
	Deadlines Deadlines
	// Dial replaces TCP dialing when non-nil.
	Dial DialFunc
}

// Dial connects to a server, performs the HELLO handshake as
// clientName with the given auth token, and returns the ready Conn.
func Dial(addr, clientName, token string) (*Conn, error) {
	return DialWithOptions(addr, clientName, token, DialOptions{})
}

// DialWithOptions is the full-control dial: transport establishment
// bound, deadline parameters and an injectable transport. The
// handshake is two untagged frames — a HELLO carrying FlagV2 and the
// HELLO_ACK echoing it — after which every frame is tagged, callers
// write through the shared ConnWriter and the reader goroutine owns the
// inbound stream. A server that does not echo the flag does
// not speak this protocol and the dial fails.
func DialWithOptions(addr, clientName, token string, opts DialOptions) (*Conn, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DialTimeout
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	dl := opts.Deadlines.withDefaults()
	c := &Conn{
		conn:    nc,
		addr:    addr,
		dl:      dl,
		w:       wire.NewConnWriter(nc, dl.PerByte, nil),
		done:    make(chan struct{}),
		pending: make(map[uint32]chan *wire.Msg),
	}
	if c.serverFree, err = c.hello(clientName, token); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello %s: %w", addr, err)
	}
	go c.readLoop()
	return c, nil
}

// hello performs the handshake exchange under the adaptive deadline
// and returns the free-page count the accepting HELLO_ACK reports. Its
// round trip seeds the RTT estimate, so the first request is already
// bounded by a measurement.
func (c *Conn) hello(clientName, token string) (free uint32, err error) {
	d := c.requestDeadline(len(token))
	c.conn.SetDeadline(time.Now().Add(d))
	defer c.conn.SetDeadline(time.Time{})
	start := time.Now()
	ack, err := wire.Hello(c.conn, clientName, token)
	if err != nil {
		// A miss of the deadline is reported as ErrReqTimeout so the
		// retry layer counts it; everything else passes through.
		if isTimeoutErr(err) {
			err = c.timeoutError(d)
		}
		return 0, err
	}
	c.observeRTT(time.Since(start).Nanoseconds())
	c.latchFlags(ack.Flags)
	free = ack.N
	wire.Recycle(ack)
	return free, nil
}

// Addr returns the server address this connection targets.
func (c *Conn) Addr() string { return c.addr }

// Broken reports whether the session has died (transport error or
// Close). A Conn that merely missed a request deadline is not broken.
func (c *Conn) Broken() bool {
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	return c.muxErr != nil
}

// LateAcksDropped counts acks that arrived after their request had
// timed out and was abandoned (diagnostics).
func (c *Conn) LateAcksDropped() uint64 { return c.lateDrops.Load() }

// Close tears the connection down without the BYE exchange.
func (c *Conn) Close() error {
	c.failMux(errMuxClosed)
	return nil
}

// reqPayloadBytes estimates the wire payload a request moves in each
// direction: its own data plus the expected response data (a PAGEIN
// ack carries a full page back).
func reqPayloadBytes(req *wire.Msg) int {
	n := len(req.Data)
	if req.Type == wire.TPageIn {
		n += page.Size
	}
	return n
}

// requestDeadline computes the adaptive bound for a round trip moving
// the given payload bytes: clamp(srtt + 4·rttvar, floor, ceil) plus
// the per-byte allowance. With no RTT estimate yet, the ceiling.
func (c *Conn) requestDeadline(payloadBytes int) time.Duration {
	srtt := c.rttNanos.Load()
	if srtt == 0 {
		return c.dl.Ceil + time.Duration(payloadBytes)*c.dl.PerByte
	}
	d := time.Duration(srtt + 4*c.rttvarNanos.Load())
	if d < c.dl.Floor {
		d = c.dl.Floor
	}
	if d > c.dl.Ceil {
		d = c.dl.Ceil
	}
	return d + time.Duration(payloadBytes)*c.dl.PerByte
}

// RequestDeadline is the adaptive deadline the connection would apply
// to a round trip moving payloadBytes (diagnostics: rmpctl, Survey).
func (c *Conn) RequestDeadline(payloadBytes int) time.Duration {
	return c.requestDeadline(payloadBytes)
}

// observeRTT folds one round-trip sample into the Jacobson
// srtt/rttvar estimators.
func (c *Conn) observeRTT(sample int64) {
	old := c.rttNanos.Load()
	if old == 0 {
		c.rttNanos.Store(sample)
		c.rttvarNanos.Store(sample / 2)
		return
	}
	dev := sample - old
	if dev < 0 {
		dev = -dev
	}
	oldVar := c.rttvarNanos.Load()
	c.rttvarNanos.Store(oldVar + (dev-oldVar)/rttBeta)
	c.rttNanos.Store(old + (sample-old)/rttAlpha)
}

// roundTrip issues req through the mux and waits for its ack under
// the adaptive deadline, folding the measured service time into the
// RTT estimate.
func (c *Conn) roundTrip(req *wire.Msg) (*wire.Msg, error) {
	return c.muxRoundTrip(req, c.requestDeadline(0), true)
}

// latchFlags records advisory flags carried on any ack.
func (c *Conn) latchFlags(flags uint8) {
	if flags&(wire.FlagPressure|wire.FlagDrain) == 0 {
		return
	}
	c.pressureMu.Lock()
	if flags&wire.FlagPressure != 0 {
		c.pressured = true
	}
	if flags&wire.FlagDrain != 0 {
		c.draining = true
	}
	c.pressureMu.Unlock()
}

// failMux records the first fatal error, closes the transport, and
// wakes every in-flight request. Idempotent; safe from any goroutine.
func (c *Conn) failMux(err error) {
	c.muxMu.Lock()
	if c.muxErr == nil {
		c.muxErr = err
	}
	// Drop the demux table: waiters are woken via done and will read
	// muxErr; a reply channel is never written after this point.
	c.pending = make(map[uint32]chan *wire.Msg)
	c.muxMu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	c.conn.Close()
}

// muxError returns the error that killed the mux, wrapped so the
// retry layer classifies it as a transport failure.
func (c *Conn) muxError() error {
	c.muxMu.Lock()
	err := c.muxErr
	c.muxMu.Unlock()
	if err == nil || err == errMuxClosed {
		return fmt.Errorf("%w: %s", errMuxClosed, c.addr)
	}
	return fmt.Errorf("%w: %s: %w", errMuxClosed, c.addr, err)
}

// readLoop decodes acks off the wire and resolves them against the
// demux table by id. Its FrameReader takes a whole ack — and, under
// pipelining, as many more as have arrived — per Read; frames decode in
// place in pooled buffers and are recycled by whoever consumes the ack
// — the Conn method that unblocks, or dispatch itself for late acks —
// so a steady-state ack stream allocates nothing. An ack with no
// pending entry (the late reply to a timed-out, abandoned request) is
// counted, recycled, and dropped; the stream stays framed and every
// other in-flight request is unaffected. The loop exits on the first
// decode error (including the transport close performed by failMux).
func (c *Conn) readLoop() {
	fr := wire.NewFrameReader(c.conn)
	for {
		m, err := fr.Next()
		if err != nil {
			c.failMux(err)
			return
		}
		c.dispatch(m)
	}
}

// dispatch resolves one decoded ack against the demux table. It runs
// once per inbound frame on the read loop, so it must not allocate:
// a map lookup, a delete, and a send into a 1-buffered channel.
// Ownership of a delivered ack (and its pooled frame buffer) passes
// to the waiter; a late ack is recycled here. The hand-over happens
// under muxMu so that abandon, which unregisters and then drains the
// channel, finds either the table entry or the ack — never neither.
//
//rmpvet:hotpath
func (c *Conn) dispatch(m *wire.Msg) {
	c.latchFlags(m.Flags)
	delivered := false
	c.muxMu.Lock()
	if ch, ok := c.pending[m.ID]; ok {
		delete(c.pending, m.ID)
		select {
		case ch <- m: // 1-buffered, one ack per id: always room
			delivered = true
		default:
		}
	}
	c.muxMu.Unlock()
	if !delivered {
		c.lateDrops.Add(1)
		wire.Recycle(m)
	}
}

// call is one request in flight on the mux: its id in the demux
// table, the 1-buffered channel its ack arrives on, and the request
// type, which fixes the ack type it expects.
type call struct {
	id  uint32
	ch  chan *wire.Msg
	typ wire.Type
}

// accept takes the ack delivered for cl, or recycles it and reports a
// reply of the wrong type.
func (cl call) accept(ack *wire.Msg) (*wire.Msg, error) {
	if ack.Type != cl.typ.Ack() {
		typ := ack.Type
		wire.Recycle(ack)
		return nil, fmt.Errorf("client: got %v in reply to %v", typ, cl.typ)
	}
	return ack, nil
}

// waiter is what a single round trip waits on: the channel its ack
// arrives on and the timer that bounds the wait. Both are reusable once
// the round trip is over — the channel is empty (the ack was received,
// or abandon drained it after unregistering the id) and the timer is
// stopped and drained — so waiters are pooled and a round trip
// allocates neither.
type waiter struct {
	ch    chan *wire.Msg
	timer *time.Timer
}

var waiterPool = sync.Pool{New: newWaiter}

func newWaiter() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan *wire.Msg, 1), timer: t}
}

// getWaiter returns a waiter whose timer fires after d.
func getWaiter(d time.Duration) *waiter {
	w := waiterPool.Get().(*waiter)
	w.timer.Reset(d)
	return w
}

// putWaiter stops w's timer, discards an expiry nobody received, and
// pools w. Only the round trip that got w receives from its timer, and
// it has finished.
func putWaiter(w *waiter) {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	waiterPool.Put(w)
}

// enqueue allocates a request id, stamps req as a tagged frame,
// installs ch in the demux table and queues the frame on the shared
// writer. It does no I/O: the caller flushes. req is not retained, only
// req.Data is referenced, until that flush returns.
func (c *Conn) enqueue(req *wire.Msg, ch chan *wire.Msg) (call, error) {
	cl := call{ch: ch, typ: req.Type}
	c.muxMu.Lock()
	if c.muxErr != nil {
		c.muxMu.Unlock()
		return call{}, c.muxError()
	}
	for {
		c.nextID++
		if _, busy := c.pending[c.nextID]; !busy {
			break
		}
	}
	cl.id = c.nextID
	c.pending[cl.id] = cl.ch
	c.muxMu.Unlock()
	req.Version = wire.Version2
	req.ID = cl.id
	if err := c.w.Queue(req); err != nil {
		c.abandon(cl)
		return call{}, err
	}
	return cl, nil
}

// flush writes every queued request — the caller's and any that other
// callers queued meanwhile — under a write deadline of base plus the
// per-byte allowance, so a peer that stopped reading costs the caller a
// bounded wait. A failed write leaves a frame half sent: the session is
// dead, and a missed deadline is reported as ErrReqTimeout so the retry
// layer counts it.
func (c *Conn) flush(base time.Duration) error {
	err := c.w.Flush(base)
	if err == nil {
		return nil
	}
	c.failMux(err)
	if isTimeoutErr(err) {
		return fmt.Errorf("%w: write to %s blocked for %v", ErrReqTimeout, c.addr, base)
	}
	return c.muxError()
}

// await waits for cl's ack until timer fires or the mux dies. A miss
// abandons only this request — the connection, and every other
// request in flight on it, carries on. Once timer has fired it must
// not be passed to await again.
func (c *Conn) await(cl call, timer *time.Timer, d time.Duration) (*wire.Msg, error) {
	select {
	case ack := <-cl.ch:
		return cl.accept(ack)
	case <-c.done:
		// The read loop delivers an ack before it can fail the mux, so
		// an ack that arrived just before the connection died is in
		// cl.ch by now; select may still have picked this arm.
		select {
		case ack := <-cl.ch:
			return cl.accept(ack)
		default:
		}
		c.abandon(cl)
		return nil, c.muxError()
	case <-timer.C:
		c.abandon(cl)
		return nil, c.timeoutError(d)
	}
}

// abandon gives up on pending requests (timeout or shutdown). An ack
// that raced the decision into its channel is recycled here; one that
// arrives later finds no table entry and is dropped by the reader.
func (c *Conn) abandon(calls ...call) {
	c.muxMu.Lock()
	for _, cl := range calls {
		delete(c.pending, cl.id)
	}
	c.muxMu.Unlock()
	for _, cl := range calls {
		select {
		case ack := <-cl.ch:
			wire.Recycle(ack)
		default:
		}
	}
}

// timeoutError reports a request that got no ack within d.
func (c *Conn) timeoutError(d time.Duration) error {
	return fmt.Errorf("%w: no ack from %s within %v", ErrReqTimeout, c.addr, d)
}

// muxRoundTrip issues one tagged request — written by this goroutine,
// not handed to another — and waits for its ack. The round trip is
// bounded by base plus the per-byte allowance over the payload it moves
// in both directions; the write alone by base plus the allowance over
// what it writes.
func (c *Conn) muxRoundTrip(req *wire.Msg, base time.Duration, sampleRTT bool) (*wire.Msg, error) {
	d := base + time.Duration(reqPayloadBytes(req))*c.dl.PerByte
	w := getWaiter(d)
	defer putWaiter(w)
	start := time.Now()
	cl, err := c.enqueue(req, w.ch)
	if err != nil {
		return nil, err
	}
	if err := c.flush(base); err != nil {
		c.abandon(cl)
		return nil, err
	}
	ack, err := c.await(cl, w.timer, d)
	if err == nil && sampleRTT {
		c.observeRTT(time.Since(start).Nanoseconds())
	}
	return ack, err
}

// RTT returns the smoothed request round-trip estimate (0 before the
// first completed request).
func (c *Conn) RTT() time.Duration { return time.Duration(c.rttNanos.Load()) }

// RTTVar returns the smoothed mean deviation of the round-trip
// estimate (0 before the first completed request).
func (c *Conn) RTTVar() time.Duration { return time.Duration(c.rttvarNanos.Load()) }

// Stat fetches the server's state snapshot.
func (c *Conn) Stat() (wire.StatInfo, error) {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TStat})
	if err != nil {
		return wire.StatInfo{}, err
	}
	if err := ack.Status.Err(); err != nil {
		wire.Recycle(ack)
		return wire.StatInfo{}, err
	}
	var info wire.StatInfo
	err = json.Unmarshal(ack.Data, &info)
	wire.Recycle(ack)
	if err != nil {
		return wire.StatInfo{}, fmt.Errorf("client: stat: %w", err)
	}
	return info, nil
}

// PressureAdvised reports and clears the latched pressure advisory.
func (c *Conn) PressureAdvised() bool {
	c.pressureMu.Lock()
	defer c.pressureMu.Unlock()
	p := c.pressured
	c.pressured = false
	return p
}

// DrainAdvised reports (without clearing) the latched drain advisory.
func (c *Conn) DrainAdvised() bool {
	c.pressureMu.Lock()
	defer c.pressureMu.Unlock()
	return c.draining
}

// Alloc asks the server to promise n pages of swap space and returns
// the number granted (0 with a nil error means the server is full).
func (c *Conn) Alloc(n int) (int, error) {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TAlloc, N: uint32(n)})
	if err != nil {
		return 0, err
	}
	n, status := int(ack.N), ack.Status
	wire.Recycle(ack)
	if status == wire.StatusNoSpace {
		return n, nil
	}
	if err := status.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// PageOut stores data under key on the server.
func (c *Conn) PageOut(key uint64, data page.Buf) error {
	if err := data.CheckLen(); err != nil {
		return err
	}
	req := (&wire.Msg{Type: wire.TPageOut, Key: key, Data: data}).WithChecksum()
	ack, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

// PageIn fetches the page stored under key. The returned buffer is a
// pooled page-class copy owned by the caller, who may page.Put it
// once done with the contents (and simply drop it otherwise).
func (c *Conn) PageIn(key uint64) (page.Buf, error) {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TPageIn, Key: key})
	if err != nil {
		return nil, err
	}
	if err := ack.Status.Err(); err != nil {
		wire.Recycle(ack)
		return nil, err
	}
	if err := ack.VerifyData(); err != nil {
		wire.Recycle(ack)
		return nil, err
	}
	if err := page.Buf(ack.Data).CheckLen(); err != nil {
		wire.Recycle(ack)
		return nil, err
	}
	// Copy out of the pooled frame so the frame recycles immediately:
	// one word-speed memcpy trades for keeping a 12 KB frame buffer
	// hostage to the caller's page lifetime.
	buf := page.Buf(ack.Data).ClonePooled()
	wire.Recycle(ack)
	return buf, nil
}

// PageOutBatch stores several pages in one pipelined exchange: every
// request is registered and queued up front and flushed once, then the
// acks are collected under one shared deadline. On a network with real
// latency this costs ~one round trip for the whole batch instead of one
// per page (used by bulk paths like recovery re-homing and VM flushes).
// Returns the first failed status after collecting every ack; a
// deadline miss or a mistyped ack abandons the unanswered requests and
// leaves the connection healthy.
func (c *Conn) PageOutBatch(keys []uint64, pages []page.Buf) error {
	if len(keys) != len(pages) {
		return fmt.Errorf("client: batch of %d keys with %d pages", len(keys), len(pages))
	}
	if len(keys) == 0 {
		return nil
	}
	for _, p := range pages {
		if err := p.CheckLen(); err != nil {
			return err
		}
	}
	// The whole batch shares one deadline: the per-request estimate
	// plus the per-byte allowance over every page in flight.
	base := c.requestDeadline(0)
	d := base + time.Duration(len(keys)*page.Size)*c.dl.PerByte
	timer := time.NewTimer(d)
	defer timer.Stop()
	start := time.Now()
	calls := make([]call, 0, len(keys))
	var err error
	for i, key := range keys {
		req := (&wire.Msg{Type: wire.TPageOut, Key: key, Data: pages[i]}).WithChecksum()
		var cl call
		if cl, err = c.enqueue(req, make(chan *wire.Msg, 1)); err != nil {
			break
		}
		calls = append(calls, cl)
	}
	// The whole batch leaves in one vectored write — also the part of a
	// batch that failed to queue in full: queued frames reference the
	// caller's pages until a flush has seen them off.
	if ferr := c.flush(base); err == nil {
		err = ferr
	}
	if err != nil {
		c.abandon(calls...)
		return err
	}
	var firstErr error
	for i, cl := range calls {
		ack, err := c.await(cl, timer, d)
		if err != nil {
			c.abandon(calls[i+1:]...)
			return err
		}
		if e := ack.Status.Err(); e != nil && firstErr == nil {
			firstErr = e
		}
		wire.Recycle(ack)
	}
	// One batch = one latency sample per page on average.
	c.observeRTT(time.Since(start).Nanoseconds() / int64(len(keys)))
	return firstErr
}

// Free releases the given keys on the server.
func (c *Conn) Free(keys ...uint64) error {
	if len(keys) == 0 {
		return nil
	}
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TFree, Keys: keys})
	if err != nil {
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

// Load polls the server's free-page count.
func (c *Conn) Load() (free int, err error) {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TLoad})
	if err != nil {
		return 0, err
	}
	c.pressureMu.Lock()
	c.serverFree = ack.N
	c.pressureMu.Unlock()
	n, status := int(ack.N), ack.Status
	wire.Recycle(ack)
	return n, status.Err()
}

// ServerFree returns the last free-page count the server reported
// (via HELLO_ACK or LOAD_ACK).
func (c *Conn) ServerFree() int {
	c.pressureMu.Lock()
	defer c.pressureMu.Unlock()
	return int(c.serverFree)
}

// XorWrite stores data under key and has the server forward
// old^new to parityAddr under parityKey (basic parity policy).
func (c *Conn) XorWrite(key uint64, data page.Buf, parityAddr string, parityKey uint64) error {
	if err := data.CheckLen(); err != nil {
		return err
	}
	req := (&wire.Msg{
		Type:      wire.TXorWrite,
		Key:       key,
		Data:      data,
		Host:      parityAddr,
		ParityKey: parityKey,
	}).WithChecksum()
	ack, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

// XorDelta merges data into the page at key on the server (used
// directly by parity-logging recovery tooling and tests; in normal
// operation servers send these to each other).
func (c *Conn) XorDelta(key uint64, data page.Buf) error {
	if err := data.CheckLen(); err != nil {
		return err
	}
	req := (&wire.Msg{Type: wire.TXorDelta, Key: key, Data: data}).WithChecksum()
	ack, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

// Ping performs one heartbeat probe bounded by timeout (0 means the
// adaptive deadline). It returns the server's free-page count, whether
// the server is draining, and any peer addresses the server gossips
// back. A late PONG is dropped by id, so the Conn stays usable after a
// missed deadline.
func (c *Conn) Ping(timeout time.Duration) (free int, draining bool, peers []string, err error) {
	if timeout <= 0 {
		timeout = c.requestDeadline(0)
	}
	// Heartbeats bypass the RTT estimate on purpose: PING skips the
	// server's service-delay model, so its latency is not a fair
	// sample of page-service time.
	ack, err := c.muxRoundTrip(&wire.Msg{Type: wire.TPing}, timeout, false)
	if err != nil {
		return 0, false, nil, err
	}
	if err := ack.Status.Err(); err != nil {
		wire.Recycle(ack)
		return 0, false, nil, err
	}
	draining = ack.Flags&wire.FlagDrain != 0
	if len(ack.Data) > 0 {
		var info wire.PongInfo
		if err := json.Unmarshal(ack.Data, &info); err == nil {
			peers = info.Peers
		}
	}
	free = int(ack.N)
	wire.Recycle(ack)
	return free, draining, peers, nil
}

// Join announces another server's address to this server, which will
// gossip it to clients via PONG. Returns the server's resulting peer
// count.
func (c *Conn) Join(addr string) (int, error) {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TJoin, Host: addr})
	if err != nil {
		return 0, err
	}
	n, status := int(ack.N), ack.Status
	wire.Recycle(ack)
	return n, status.Err()
}

// Drain asks the server to leave gracefully: it stops granting swap
// space and advises every client (via FlagDrain on all acks) to
// migrate pages out.
func (c *Conn) Drain() error {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TDrain})
	if err != nil {
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

// Bye performs the graceful goodbye exchange and closes the
// connection. After the last BYE from a client, the server discards
// the client's pages and reservation.
func (c *Conn) Bye() error {
	ack, err := c.roundTrip(&wire.Msg{Type: wire.TBye})
	wire.Recycle(ack)
	c.Close()
	return err
}
