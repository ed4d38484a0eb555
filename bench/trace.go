package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rmp/internal/blockdev"
	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/wire"
)

// The tracer records spans at the boundaries the program already
// exposes, from the bench's side of them:
//
//	op      one Pager call (or one blockdev.Device call in app_gauss)
//	conn    one request on a client connection: first request byte
//	        handed to the socket → last reply byte read from it
//	server  the same request on the server's end of that connection:
//	        first request byte read → reply handed to the socket
//
// A conn span's parent is the op in progress when its request was
// written (one caller, closed loop, so there is exactly one); a server
// span's parent is the conn span with the same connection and request
// id. Spans stay in memory until the run ends.

type spanKind uint8

const (
	spanPageIn  spanKind = iota // op: Pager.PageIn / Device.ReadBlock
	spanPageOut                 // op: Pager.PageOut / Device.WriteBlock
	spanConn
	spanServer
)

var spanNames = [...]string{"op.pagein", "op.pageout", "conn.request", "server.request"}

type span struct {
	kind       spanKind
	op         uint64 // the op span's id (own id for op spans; 0 on server spans, joined later)
	conn       uint32 // connection number (0 on op spans)
	req        uint32 // wire request id (0 on op spans)
	start, end int64  // ns since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool   // spans and bytes are recorded only while on
	cur   atomic.Uint64 // op in progress
	ops   atomic.Uint64

	mu    sync.Mutex
	spans []span            // Guarded by mu.
	conns map[string]uint32 // client-side address → connection number. Guarded by mu.
	bytes atomic.Uint64     // bytes crossing client connections while on
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conns: make(map[string]uint32), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record keeps s if recording is on. The connection wrappers follow
// every frame whether it is on or not, so that switching it on between
// two reads of one frame cannot leave a parser mid-payload.
func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds n bytes crossing a client connection, while recording is on.
func (t *tracer) count(n int) {
	if t.on.Load() {
		t.bytes.Add(uint64(n))
	}
}

// enable switches span recording; a nil tracer (untraced run) ignores it.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// beginOp opens an op span and makes it the parent of every request
// written until the next one. Safe on a nil tracer (untraced run).
func (t *tracer) beginOp() uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.ops.Add(1)
	t.cur.Store(id)
	return id
}

func (t *tracer) endOp(id uint64, kind spanKind, start, end time.Time) {
	if id == 0 {
		return
	}
	t.cur.Store(0)
	t.record(span{kind: kind, op: id, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// connNumber names a connection by its client-side address, which
// both ends can see.
func (t *tracer) connNumber(clientAddr net.Addr) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.conns[clientAddr.String()]
	if !ok {
		n = uint32(len(t.conns) + 1)
		t.conns[clientAddr.String()] = n
	}
	return n
}

// dial is the client.Config.Dial injection point.
func (t *tracer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: nc, tr: t, num: t.connNumber(nc.LocalAddr()), client: true, pending: make(map[uint32]pendingReq)}, nil
}

// tracedListener wraps the listener under Server.Serve.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: nc, tr: l.tr, num: l.tr.connNumber(nc.RemoteAddr()), pending: make(map[uint32]pendingReq)}, nil
}

type pendingReq struct {
	start int64
	op    uint64
}

// tracedConn watches the frames crossing one end of a connection. It
// reads only frame headers (layout in PROTOCOL.md), never payloads.
type tracedConn struct {
	net.Conn
	tr     *tracer
	num    uint32
	client bool

	mu      sync.Mutex
	pending map[uint32]pendingReq // requests seen, reply not yet. Guarded by mu.
	in, out frameParser           // in: reader goroutine only; out: Guarded by mu.
	leaving []uint32              // server: replies in the write in progress. Guarded by mu.
}

var _ wire.BuffersWriter = (*tracedConn)(nil)

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.tr.now()
		if c.client {
			c.tr.count(n)
			c.in.feed(b[:n], now, c.finish)
		} else {
			c.in.feed(b[:n], now, c.arrive)
		}
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	bufs := net.Buffers{b}
	n, err := c.WriteBuffers(&bufs)
	return int(n), err
}

// WriteBuffers keeps the FrameWriter's single writev: the vector goes
// to the TCP connection untouched after its headers are looked at.
func (c *tracedConn) WriteBuffers(v *net.Buffers) (int64, error) {
	if c.client {
		// Requests: the span starts before the bytes reach the socket.
		now := c.tr.now()
		c.mu.Lock()
		for _, b := range *v {
			c.tr.count(len(b))
			c.out.feed(b, now, c.depart)
		}
		c.mu.Unlock()
		return v.WriteTo(c.Conn)
	}
	// Replies: the span ends once the socket has taken them.
	c.mu.Lock()
	c.leaving = c.leaving[:0]
	for _, b := range *v {
		c.out.feed(b, 0, func(req uint32, _ int64) { c.leaving = append(c.leaving, req) })
	}
	c.mu.Unlock()
	n, err := v.WriteTo(c.Conn)
	c.mu.Lock()
	for _, req := range c.leaving {
		c.finish(req, 0)
	}
	c.mu.Unlock()
	return n, err
}

// depart notes a request leaving the client. Caller holds mu.
func (c *tracedConn) depart(req uint32, start int64) {
	c.pending[req] = pendingReq{start: start, op: c.tr.cur.Load()}
}

// arrive notes a request reaching the server.
func (c *tracedConn) arrive(req uint32, start int64) {
	c.mu.Lock()
	c.pending[req] = pendingReq{start: start}
	c.mu.Unlock()
}

// finish closes the span of request req: on the client when its reply
// has been read, on the server when its reply has been written (caller
// holds mu there).
func (c *tracedConn) finish(req uint32, _ int64) {
	if c.client {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	p, ok := c.pending[req]
	if !ok {
		return
	}
	delete(c.pending, req)
	kind := spanServer
	if c.client {
		kind = spanConn
	}
	c.tr.record(span{kind: kind, op: p.op, conn: c.num, req: req, start: p.start, end: c.tr.now()})
}

// frameParser follows a byte stream of wire frames and reports each
// v2 frame once its last byte has passed: 12-byte header (version at
// 2, payload length at 8), a 4-byte request id when the version is 2,
// then the payload.
type frameParser struct {
	hdr   [16]byte
	have  int   // header bytes collected
	body  int   // payload bytes still to pass
	start int64 // when the frame's first byte passed
}

func (p *frameParser) feed(b []byte, now int64, done func(req uint32, start int64)) {
	for len(b) > 0 {
		if p.body > 0 {
			n := min(p.body, len(b))
			p.body -= n
			b = b[n:]
			if p.body == 0 {
				p.finish(done)
			}
			continue
		}
		if p.have == 0 {
			p.start = now
		}
		want := 12
		if p.have >= 12 && p.hdr[2] == wire.Version2 {
			want = 16
		}
		n := copy(p.hdr[p.have:want], b)
		p.have += n
		b = b[n:]
		if p.have == 12 && p.hdr[2] == wire.Version2 {
			continue // the request id follows
		}
		if p.have == want {
			p.body = int(binary.BigEndian.Uint32(p.hdr[8:]))
			if p.body == 0 {
				p.finish(done)
			}
		}
	}
}

func (p *frameParser) finish(done func(uint32, int64)) {
	if p.hdr[2] == wire.Version2 {
		done(binary.BigEndian.Uint32(p.hdr[12:]), p.start)
	}
	p.have, p.body = 0, 0
}

// tracedDevice is the blockdev.Device app_gauss runs over: it times
// every call (always — the app, not the bench, issues the ops), cuts
// the run into rounds of gaussRoundOps calls so that app_gauss has
// rounds like the fault streams do, remembers the checksum of each
// block's last acknowledged write and checks every read against it,
// and on a traced run records the call as an op span.
type tracedDevice struct {
	inner blockdev.Device
	pager *client.Pager
	tr    *tracer
	ref   *refClock

	ins, outs latencies // samples of the round in progress
	sums      map[int64]uint32
	failed    int64         // in the round in progress
	span      time.Duration // Σ device call durations of the round in progress

	rounds []round
	// The rounds' durations summed, the reference-clock measurements
	// between them left out: in wall-clock seconds, and each scaled by
	// the machine's speed over it. refSpan is the device calls' share.
	wall, refWall, refSpan float64
	// Where the round in progress began.
	markTime time.Time
	markUse  usage
	markTrip float64
}

// gaussRoundOps is the length of an app_gauss round in device calls:
// GAUSS(400) makes 41 129 of them, so 21 rounds of about 0.15 s.
const gaussRoundOps = 2048

var _ blockdev.Device = (*tracedDevice)(nil)

func newTracedDevice(p *client.Pager, tr *tracer, ref *refClock) *tracedDevice {
	return &tracedDevice{inner: blockdev.NewPagerDevice(p), pager: p, tr: tr, ref: ref, sums: make(map[int64]uint32)}
}

// start opens the first round; the app's run follows. Calls made
// before it (set-up) are checked and summed like any other, not timed.
func (d *tracedDevice) start() {
	d.ins, d.outs, d.span = d.ins[:0], d.outs[:0], 0
	d.markTrip = d.ref.trip()
	d.markTime, d.markUse = time.Now(), snapshot(d.pager)
}

// cut closes the round in progress and takes the reference-clock
// measurement between it and the next. The round's rate is device calls
// per second of wall time, the app's compute included.
func (d *tracedDevice) cut() {
	wall := time.Since(d.markTime).Seconds()
	r := round{ins: slices.Clone(d.ins), outs: slices.Clone(d.outs), failed: d.failed, use: snapshot(d.pager).since(d.markUse)}
	r.ops = len(r.ins) + len(r.outs)
	r.rate = float64(r.ops) / wall
	trip := d.ref.trip()
	r.speed = speed(d.markTrip, trip)
	d.rounds = append(d.rounds, r)
	d.wall += wall
	d.refWall += wall * r.speed
	d.refSpan += d.span.Seconds() * r.speed
	d.ins, d.outs, d.failed, d.span = d.ins[:0], d.outs[:0], 0, 0
	d.markTrip = trip
	d.markTime, d.markUse = time.Now(), snapshot(d.pager)
}

func (d *tracedDevice) called() {
	if len(d.ins)+len(d.outs) >= gaussRoundOps {
		d.cut()
	}
}

func (d *tracedDevice) ReadBlock(bn int64, buf page.Buf) error {
	op := d.tr.beginOp()
	t0 := time.Now()
	err := d.inner.ReadBlock(bn, buf)
	t1 := time.Now()
	d.tr.endOp(op, spanPageIn, t0, t1)
	d.ins = append(d.ins, int64(t1.Sub(t0)))
	d.span += t1.Sub(t0)
	if err != nil || buf.Checksum() != d.sums[bn] {
		d.failed++
	}
	d.called()
	return err
}

func (d *tracedDevice) WriteBlock(bn int64, data page.Buf) error {
	sum := data.Checksum()
	op := d.tr.beginOp()
	t0 := time.Now()
	err := d.inner.WriteBlock(bn, data)
	t1 := time.Now()
	d.tr.endOp(op, spanPageOut, t0, t1)
	d.outs = append(d.outs, int64(t1.Sub(t0)))
	d.span += t1.Sub(t0)
	if err != nil {
		d.failed++
	} else {
		d.sums[bn] = sum
	}
	d.called()
	return err
}

func (d *tracedDevice) Discard(bns ...int64) error { return d.inner.Discard(bns...) }
func (d *tracedDevice) Close() error               { return d.inner.Close() }

// layerTimes is the per-op breakdown the spans give: for every op,
// self time of the client (op minus the part its conn spans cover),
// of the transport (what the conn spans cover minus what their server
// spans cover) and the server's service time (what the server spans
// cover). The three add up to the op's duration exactly; the reported
// figures are medians over ops, in µs.
type layerTimes struct {
	client, transport, server [2]float64 // indexed by spanPageIn / spanPageOut
	ops                       [2]int
}

type interval struct{ start, end int64 }

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv.start, at), min(iv.end, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

func (t *tracer) layerTimes() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	type connReq struct{ conn, req uint32 }
	type opSpans struct {
		kind         spanKind
		start, end   int64
		conn, server []interval
	}
	ops := make(map[uint64]*opSpans)
	opOf := make(map[connReq]uint64)
	for _, s := range t.spans {
		switch s.kind {
		case spanPageIn, spanPageOut:
			ops[s.op] = &opSpans{kind: s.kind, start: s.start, end: s.end}
		case spanConn:
			opOf[connReq{s.conn, s.req}] = s.op
		}
	}
	for _, s := range t.spans {
		switch s.kind {
		case spanConn:
			if o := ops[s.op]; o != nil {
				o.conn = append(o.conn, interval{s.start, s.end})
			}
		case spanServer:
			if o := ops[opOf[connReq{s.conn, s.req}]]; o != nil {
				o.server = append(o.server, interval{s.start, s.end})
			}
		}
	}
	var self, trans, serve [2][]float64
	for _, o := range ops {
		inConn := covered(o.conn, o.start, o.end)
		inServer := covered(o.server, o.start, o.end)
		self[o.kind] = append(self[o.kind], float64(o.end-o.start-inConn)/1e3)
		trans[o.kind] = append(trans[o.kind], float64(inConn-inServer)/1e3)
		serve[o.kind] = append(serve[o.kind], float64(inServer)/1e3)
	}
	var lt layerTimes
	for k := range self {
		lt.client[k], lt.transport[k], lt.server[k] = median(self[k]), median(trans[k]), median(serve[k])
		lt.ops[k] = len(self[k])
	}
	return lt
}

// traceFileSpans bounds trace.json: the breakdown uses every span,
// the file keeps the first of them for inspection.
const traceFileSpans = 50000

// writeFile dumps the recorded spans (at most traceFileSpans) as JSON.
func (t *tracer) writeFile(path, workload string) error {
	type jsonSpan struct {
		Name     string `json:"name"`
		Workload string `json:"workload"`
		Op       uint64 `json:"op"`
		Conn     uint32 `json:"conn,omitempty"`
		Req      uint32 `json:"req,omitempty"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
	}
	t.mu.Lock()
	n := min(len(t.spans), traceFileSpans)
	out := struct {
		Recorded int        `json:"spans_recorded"`
		Note     string     `json:"note"`
		Spans    []jsonSpan `json:"spans"`
	}{Recorded: len(t.spans), Note: "op is the parent op span's id; a server.request's parent is the conn.request with the same conn and req"}
	for _, s := range t.spans[:n] {
		out.Spans = append(out.Spans, jsonSpan{spanNames[s.kind], workload, s.op, s.conn, s.req, s.start, s.end})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
