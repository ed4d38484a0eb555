// Package server implements the remote memory server: a user-level
// program that listens on a socket, accepts connections from RMP
// clients, and stores their swapped-out pages in main memory
// (paper §3.2).
//
// Faithful to the paper, the server is policy-agnostic: it answers
// pageins and pageouts "without knowing whether it stores memory
// pages or parity pages". A parity server is just another server. The
// one cooperative extra is XORWRITE: for the basic parity policy the
// server computes old XOR new locally and forwards the delta to the
// designated parity server itself, saving the client a transfer.
//
// The paper forks "a new instance of the server" per client; here each
// accepted connection gets a session goroutine. Sessions presenting
// the same client name (from HELLO) share one key namespace, so a
// client may open several connections for parallelism — and so a
// parity delta forwarded on the client's behalf lands where the client
// can later read it back during recovery. Namespaces are 16-bit tags
// prefixed onto the 48-bit client key space.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rmp/internal/cluster"
	"rmp/internal/disk"
	"rmp/internal/page"
	"rmp/internal/store"
	"rmp/internal/wire"
)

// keyBits is how many bits of the wire key belong to the client; the
// top 16 bits carry the client-namespace tag.
const keyBits = 48

const keyMask = uint64(1)<<keyBits - 1

// Config parametrizes a Server.
type Config struct {
	// Name identifies the server in logs and load reports.
	Name string
	// CapacityPages is the donated memory in pages (hard limit,
	// including overflow headroom).
	CapacityPages int
	// OverflowFrac is the fraction of capacity kept as overflow for
	// parity logging (the paper uses 0.10).
	OverflowFrac float64
	// AuthToken, when non-empty, must match the token carried in each
	// client's HELLO. Stands in for the paper's privileged-port check.
	AuthToken string
	// PressureDelay is added to every page service while the host is
	// under native memory pressure, emulating requests "serviced from
	// the disk" after the kernel swapped the server's pages out (§2.1).
	PressureDelay time.Duration
	// ServiceDelay is added to every page service unconditionally.
	// It emulates a distant or slow server — the paper's §5
	// heterogeneous-network scenario where "the time it takes to
	// transfer a page may not be identical for each server".
	ServiceDelay time.Duration
	// Spill enables the tiered store's disk tier (a throwaway temp
	// file): cold pages beyond the compressed tier's target spill to
	// local disk, and — because storage degrades to slower tiers
	// instead of vanishing — the server keeps granting swap space
	// under native pressure rather than denying it (the §2.1 cliff
	// becomes a slope).
	Spill bool
	// SpillPath makes the disk tier durable at the given path: slots
	// are self-describing and CRC-verified, and a restarting server
	// recovers the spilled pages (or cleanly reports the loss of any
	// slot that fails verification). Implies Spill.
	SpillPath string
	// SpillFrac is the fraction of the resident set demoted out of the
	// hot tier when pressure sets in (default 0.5): under pressure the
	// hot target becomes stored*(1-SpillFrac).
	SpillFrac float64
	// HotPages / ColdPages are the unpressured tier targets passed to
	// the store (0 = full capacity may stay hot / compressed).
	HotPages  int
	ColdPages int
	// DemoteEvery is the background demotion worker's tick (default
	// 25 ms).
	DemoteEvery time.Duration
	// DiskModel charges synthetic latency per disk-tier access, so
	// experiments can model a 1996 paging disk on modern hardware.
	DiskModel disk.LatencyModel
	// DenyUnderPressure restores the paper's §2.1 behaviour for
	// comparison runs: deny swap-space allocation while pressured even
	// though the tiered store could absorb it.
	DenyUnderPressure bool
	// PressureTrace, when non-empty, replays an idle-memory profile
	// (internal/cluster's weekly curve) as live native pressure: every
	// TraceTick the next sample's free fraction becomes the hot-tier
	// target, and the pressure advisory tracks TraceLowWater. The
	// trace wraps around; a zero TraceTick defaults to one second.
	PressureTrace []cluster.Sample
	TraceTick     time.Duration
	// TraceLowWater is the free fraction under which the trace raises
	// the pressure advisory (default 0.5).
	TraceLowWater float64
	// Dial, when non-nil, replaces TCP for the server's own outbound
	// connections (XORWRITE delta forwarding to the parity server).
	// Tests inject an in-memory transport here.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Logger receives diagnostics; nil silences them.
	Logger *log.Logger
}

// Server is a remote memory server. Create with New, start with Serve
// or ListenAndServe, stop with Close.
type Server struct {
	cfg   Config
	store *store.Tiered
	// demoter is the store's background demotion worker; stopped by
	// Close.
	demoter *store.Demoter
	// stopTrace cancels the pressure-trace driver (nil when no trace
	// is configured). Closed by Close.
	stopTrace chan struct{}
	// diskTier records whether the store has a disk tier — the
	// condition under which pressure demotes instead of denying.
	diskTier bool

	mu sync.Mutex
	// ln is the accept listener; set by Serve, closed by Close.
	// Guarded by mu.
	ln net.Listener
	// conns tracks live sessions so Close can sever them. Guarded by
	// mu.
	conns map[net.Conn]struct{}
	// clients maps client name to its namespace. Guarded by mu.
	clients map[string]*clientNS
	// nextTag allocates namespace tags. Guarded by mu.
	nextTag uint16
	// closed latches Close. Guarded by mu.
	closed bool

	pressure atomic.Bool
	// draining is the graceful-leave flag: every ack carries
	// wire.FlagDrain asking clients to migrate their pages out, and new
	// swap-space allocation is denied. Set via the DRAIN message or
	// SetDraining; rmemd exits once draining and empty.
	draining atomic.Bool
	// pings counts heartbeat probes served (exported via STAT).
	pings atomic.Uint64
	// extraDelay augments Config.ServiceDelay at runtime (varying
	// host or network load).
	extraDelay atomic.Int64

	peersMu sync.Mutex
	// peers are other servers' addresses learned from JOIN announces;
	// gossiped back to clients in every PONG so pagers discover
	// newly-joined servers without re-reading the registry. Guarded by
	// peersMu.
	peers []string

	wg sync.WaitGroup

	// parityConns caches outbound connections for XORWRITE forwarding,
	// keyed by parity server and client because the forwarded HELLO must
	// impersonate the originating client to hit its namespace.
	parityMu sync.Mutex
	// parityConns is the forwarding-connection cache. Guarded by
	// parityMu.
	parityConns map[parityLink]*parityConn
}

// parityLink names a forwarding connection: the parity server it
// reaches and the client whose namespace its deltas land in.
type parityLink struct{ addr, client string }

type parityConn struct {
	mu   sync.Mutex
	conn net.Conn
	// fw and fr frame the link: one delta out through a vectored write,
	// one ack in. Guarded by mu.
	fw *wire.FrameWriter
	fr *wire.FrameReader
	// nextID is the id of the last delta sent; the ack must echo it.
	// Guarded by mu.
	nextID uint32
}

// clientNS is the per-client-name state shared by that client's
// sessions: the namespace tag, the swap-space reservation, and a
// reference count of live sessions. Pages and reservations outlive
// individual connections (a transient disconnect must not destroy a
// client's swap space); they are torn down when the last session of a
// client that said BYE closes, or via DropClient.
type clientNS struct {
	tag uint16
	// refs counts live sessions of this client. Guarded by Server.mu.
	refs int
	// reserved is the client's granted swap-space reservation in
	// pages. Guarded by Server.mu.
	reserved int
	// saidBye marks a graceful goodbye in progress. Guarded by
	// Server.mu.
	saidBye bool
}

type session struct {
	name string
	ns   *clientNS
	conn net.Conn
	// w is the session's reply writer, shared by its workers: whoever
	// finishes a request queues the ack and flushes it, together with
	// any acks queued meanwhile, under the write lock.
	w *wire.ConnWriter
}

// New creates a server with the given configuration.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "rmemd"
	}
	s := &Server{
		cfg:         cfg,
		conns:       make(map[net.Conn]struct{}),
		clients:     make(map[string]*clientNS),
		parityConns: make(map[parityLink]*parityConn),
	}
	storeCfg := store.Config{
		CapacityPages: cfg.CapacityPages,
		OverflowFrac:  cfg.OverflowFrac,
		HotPages:      cfg.HotPages,
		ColdPages:     cfg.ColdPages,
		Spill:         cfg.Spill,
		SpillPath:     cfg.SpillPath,
		DiskModel:     cfg.DiskModel,
		Logger:        cfg.Logger,
	}
	st, err := store.New(storeCfg)
	if err != nil {
		// The disk tier could not be opened (or recovered); degrade to
		// the in-memory tiers rather than refuse to start.
		s.logf("%s: disk tier disabled: %v", cfg.Name, err)
		storeCfg.Spill, storeCfg.SpillPath = false, ""
		st, _ = store.New(storeCfg)
	} else {
		s.diskTier = cfg.Spill || cfg.SpillPath != ""
	}
	s.store = st
	s.demoter = st.StartDemoter(cfg.DemoteEvery)
	if len(cfg.PressureTrace) > 0 {
		s.stopTrace = make(chan struct{})
		s.wg.Add(1)
		go s.traceLoop()
	}
	return s
}

// ListenAndServe listens on addr ("host:port", port 0 for ephemeral)
// and serves until Close. It returns once the listener is installed;
// serving continues in the background.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve starts accepting connections from ln in the background.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

// Addr returns the listen address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// SetPressure marks the host as loaded (or unloaded) by native
// memory-demanding processes. While set, every ack carries
// wire.FlagPressure advising the client to migrate its pages
// elsewhere, and page service pays PressureDelay. Setting pressure
// shrinks the tiered store's hot target by SpillFrac, so part of the
// donated memory compresses (and, with a disk tier, spills) — the
// §2.1 "part of the server's memory is swapped out to disk", served
// slower instead of evicted. Clearing pressure restores the targets
// and eagerly promotes demoted pages back. Swap-space allocation is
// denied while pressured only when there is no disk tier to absorb
// it (or DenyUnderPressure forces the paper's cliff).
func (s *Server) SetPressure(on bool) {
	was := s.pressure.Swap(on)
	if was == on {
		return
	}
	if on {
		frac := s.cfg.SpillFrac
		if frac <= 0 || frac > 1 {
			frac = 0.5
		}
		// Shrink the resident set, not the nominal capacity: the host
		// wants memory back now, so the target is a fraction of what is
		// actually stored (and stays there, bounding growth, until the
		// pressure clears).
		hot := int(float64(s.store.Len()) * (1 - frac))
		if hot < 1 {
			hot = 1
		}
		s.store.SetTargets(hot, s.cfg.ColdPages)
		if n := s.store.Enforce(); n > 0 {
			s.logf("%s: demoted %d pages under memory pressure", s.cfg.Name, n)
		}
	} else {
		s.store.SetTargets(s.cfg.HotPages, s.cfg.ColdPages)
		if n := s.store.PromoteHot(); n > 0 {
			s.logf("%s: promoted %d pages back after pressure cleared", s.cfg.Name, n)
		}
	}
}

// Pressure reports the current pressure flag.
func (s *Server) Pressure() bool { return s.pressure.Load() }

// SetDraining marks the server as gracefully leaving (or cancels the
// leave). While draining, every ack carries wire.FlagDrain, swap-space
// allocation is denied, and stored pages keep being served so clients
// can migrate them out.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports the graceful-leave flag.
func (s *Server) Draining() bool { return s.draining.Load() }

// maxPeers bounds the gossiped peer list; beyond this a registry file
// is the right tool.
const maxPeers = 64

// parityIOTimeout bounds the XORDELTA round trip to the parity
// server, which runs while the parity connection's mutex is held.
const parityIOTimeout = 5 * time.Second

// AddPeer records another server's address for gossip to clients.
// Duplicates are ignored; returns the resulting peer count.
func (s *Server) AddPeer(addr string) int {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	for _, p := range s.peers {
		if p == addr {
			return len(s.peers)
		}
	}
	if len(s.peers) < maxPeers {
		s.peers = append(s.peers, addr)
	}
	return len(s.peers)
}

// Peers returns a copy of the gossiped peer list.
func (s *Server) Peers() []string {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	return append([]string(nil), s.peers...)
}

// Store exposes the backing tiered page store (read-mostly; used by
// tests, stats endpoints, benchmarks and crash-recovery tooling).
func (s *Server) Store() *store.Tiered { return s.store }

// Close stops the listener and all sessions and waits for them.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.parityMu.Lock()
	for _, pc := range s.parityConns {
		pc.conn.Close()
	}
	s.parityConns = make(map[parityLink]*parityConn)
	s.parityMu.Unlock()
	if s.stopTrace != nil {
		close(s.stopTrace)
	}
	s.wg.Wait()
	s.demoter.Close()
	return s.store.Close()
}

// DropClient discards everything held for the named client: pages,
// reservation, namespace. Administrative escape hatch for clients that
// vanished without BYE.
func (s *Server) DropClient(name string) {
	s.mu.Lock()
	ns, ok := s.clients[name]
	if ok {
		delete(s.clients, name)
	}
	s.mu.Unlock()
	if ok {
		s.purgeNamespace(ns)
	}
}

func (s *Server) purgeNamespace(ns *clientNS) {
	// The namespace is already unlinked from s.clients, but a session
	// that attached before DropClient may still hold a pointer and
	// mutate the reservation under s.mu — so the handoff to zero must
	// happen under the same lock.
	s.mu.Lock()
	reserved := ns.reserved
	ns.reserved = 0
	s.mu.Unlock()
	if reserved > 0 {
		s.store.Release(reserved)
	}
	var doomed []uint64
	// Keys() spans every tier, so spilled and compressed pages are
	// purged along with the hot ones.
	for _, k := range s.store.Keys() {
		if uint16(k>>keyBits) == ns.tag {
			doomed = append(doomed, k)
		}
	}
	s.store.Delete(doomed...)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// attach binds a new session to the namespace for client name,
// creating it on first contact.
func (s *Server) attach(name string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.clients[name]
	if !ok {
		s.nextTag++
		ns = &clientNS{tag: s.nextTag}
		s.clients[name] = ns
	}
	ns.refs++
	ns.saidBye = false
	return &session{name: name, ns: ns}
}

// detach drops a session; the namespace is purged when the last
// session of a BYE'd client leaves.
func (s *Server) detach(sess *session) {
	s.mu.Lock()
	sess.ns.refs--
	purge := sess.ns.refs == 0 && sess.ns.saidBye
	if purge {
		delete(s.clients, sess.name)
	}
	s.mu.Unlock()
	if purge {
		s.purgeNamespace(sess.ns)
	}
}

// maxSessionInflight bounds how many requests one session services
// concurrently: the session's workers. It backpressures a runaway
// pipeline without stalling the read loop in the common case.
const maxSessionInflight = 64

// replyIOTimeout bounds one flush of replies, which runs while the
// session's write lock is held: a client that stopped reading costs
// its own session a timeout and a closed connection, never a parked
// worker.
const replyIOTimeout = 5 * time.Second

// serveConn runs one session. The handshake is two untagged frames:
// the first frame must be a HELLO with a valid token and FlagV2, and
// the HELLO_ACK echoes the flag. From then on every frame is tagged:
// the read loop takes whole requests off the wire (one Read each, or
// several requests per Read under pipelining) and hands each to an idle
// session worker, starting another — up to maxSessionInflight — only
// when all are busy, so a slow request never holds up the one behind
// it while a closed loop of requests runs on one warm goroutine. A
// worker answers on the connection itself, under the session's write
// lock. XORWRITE/XORDELTA are routed to a dedicated FIFO worker so
// their read-modify-write cycles on this client's namespace apply in
// arrival order (the pager pipelines parity traffic for distinct pages,
// but deltas for the same parity page must not race each other out of
// order — see PROTOCOL.md). Everything else may reorder freely; the
// client matches acks by id.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	fr := wire.NewFrameReader(conn)
	defer fr.Release()
	m, err := fr.Next()
	if err != nil {
		return
	}
	typ, tagged, name, token := m.Type, m.Flags&wire.FlagV2 != 0, m.Host, string(m.Data)
	wire.Recycle(m)
	if typ != wire.THello {
		wire.Encode(conn, &wire.Msg{Type: typ.Ack(), Status: wire.StatusDenied})
		return
	}
	if s.cfg.AuthToken != "" && token != s.cfg.AuthToken {
		wire.Encode(conn, &wire.Msg{Type: wire.THelloAck, Status: wire.StatusDenied})
		s.logf("%s: rejected client %q: bad token", s.cfg.Name, name)
		return
	}
	if !tagged {
		// A peer from before tagged framing: refuse it before it gets a
		// namespace, rather than misparse everything it sends next.
		wire.Encode(conn, &wire.Msg{Type: wire.THelloAck, Status: wire.StatusDenied})
		s.logf("%s: rejected client %q: HELLO without the V2 flag", s.cfg.Name, name)
		return
	}
	if name == "" {
		name = conn.RemoteAddr().String()
	}
	sess := s.attach(name)
	defer s.detach(sess)
	sess.conn = conn
	sess.w = wire.NewConnWriter(conn, 0, releaseReply)
	helloAck := &wire.Msg{Type: wire.THelloAck, Flags: wire.FlagV2, N: uint32(s.store.Free())}
	s.stampFlags(helloAck)
	if err := wire.Encode(conn, helloAck); err != nil {
		return
	}
	s.logf("%s: client %q connected (ns %d)", s.cfg.Name, sess.name, sess.ns.tag)

	// work hands a request to an idle worker; unbuffered, so a send
	// that would block means every worker is busy.
	work := make(chan *wire.Msg)
	xorCh := make(chan *wire.Msg, maxSessionInflight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// FIFO ordering domain: one worker, channel arrival order.
		for m := range xorCh {
			s.answer(sess, m)
		}
	}()
	workers := 0
	var bye *wire.Msg
	for bye == nil {
		m, err := fr.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("%s: client %q read: %v", s.cfg.Name, sess.name, err)
			}
			break
		}
		switch m.Type {
		case wire.TXorWrite, wire.TXorDelta:
			xorCh <- m
		case wire.TBye:
			// Quiesce: stop reading, let in-flight requests finish,
			// then answer the BYE last so the client sees every ack.
			bye = m
		default:
			select {
			case work <- m:
			default:
				if workers == maxSessionInflight {
					work <- m
					break
				}
				workers++
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.answer(sess, m)
					for m := range work {
						s.answer(sess, m)
					}
				}()
			}
		}
	}
	close(xorCh)
	close(work)
	wg.Wait()
	if bye != nil {
		s.answer(sess, bye)
	}
}

// answer services one request and sends its ack, tagged with the
// request's id and the advisory flags. Nothing retains the request or
// its payload once the handler returns (handlers copy what they
// store), so it is recycled before the reply is written. The ack — its
// Msg and its Data, both pooled — goes back only after the flush that
// shipped it, honoring the FrameWriter aliasing contract; that flush
// may be another worker's. A reply that cannot be written ends the
// session: closing the connection fails the read loop, which winds the
// workers down.
func (s *Server) answer(sess *session, m *wire.Msg) {
	resp := s.handle(sess, m)
	resp.Version = wire.Version2
	resp.ID = m.ID
	s.stampFlags(resp)
	wire.Recycle(m)
	if err := sess.w.QueueOwned(resp); err != nil {
		releaseReply(resp)
		sess.conn.Close()
		return
	}
	if sess.w.Flush(replyIOTimeout) != nil {
		sess.conn.Close()
	}
}

// releaseReply returns a sent ack and its payload to their pools.
func releaseReply(m *wire.Msg) {
	page.Put(m.Data)
	wire.Recycle(m)
}

// stampFlags adds the pressure and drain advisories to a reply.
func (s *Server) stampFlags(resp *wire.Msg) {
	if s.pressure.Load() {
		resp.Flags |= wire.FlagPressure
	}
	if s.draining.Load() {
		resp.Flags |= wire.FlagDrain
	}
}

// nsKey namespaces a client key with the client tag.
func nsKey(tag uint16, key uint64) uint64 { return uint64(tag)<<keyBits | (key & keyMask) }

// handle services one request and builds the acknowledgement.
func (s *Server) handle(sess *session, m *wire.Msg) *wire.Msg {
	tag := sess.ns.tag
	ack := wire.GetMsg()
	ack.Type, ack.Key = m.Type.Ack(), m.Key
	switch m.Type {
	case wire.TAlloc:
		// Draining always denies. Pressure denies only when there is
		// no disk tier to absorb the demotions (or the paper-faithful
		// DenyUnderPressure cliff is requested): a tiered server
		// degrades latency, not availability (§2.1 revisited).
		if s.draining.Load() ||
			(s.pressure.Load() && (s.cfg.DenyUnderPressure || !s.diskTier)) {
			ack.Status = wire.StatusNoSpace
			return ack
		}
		granted := s.store.Reserve(int(m.N))
		s.mu.Lock()
		sess.ns.reserved += granted
		s.mu.Unlock()
		ack.N = uint32(granted)
		if granted == 0 {
			ack.Status = wire.StatusNoSpace
		}

	case wire.TPageOut:
		if err := m.VerifyData(); err != nil {
			ack.Status = wire.StatusBadChecksum
			return ack
		}
		s.maybeStall()
		if err := s.store.Put(nsKey(tag, m.Key), page.Buf(m.Data)); err != nil {
			ack.Status = storeStatus(err)
		}

	case wire.TPageIn:
		s.maybeStall()
		data, err := s.store.Get(nsKey(tag, m.Key))
		if err != nil {
			if errors.Is(err, store.ErrCorrupt) {
				s.logf("%s: page %d lost to disk-tier corruption", s.cfg.Name, m.Key)
			}
			ack.Status = storeStatus(err)
			return ack
		}
		ack.Data = data
		ack.WithChecksum()

	case wire.TFree:
		for i, k := range m.Keys { // in place: m is recycled once this returns
			m.Keys[i] = nsKey(tag, k)
		}
		s.store.Delete(m.Keys...)
		ack.N = uint32(len(m.Keys))

	case wire.TLoad:
		ack.N = uint32(s.store.Free())

	case wire.TPing:
		// Heartbeat: deliberately skips maybeStall — the probe measures
		// liveness, not page-service latency, and must not miss its
		// deadline just because the host is slow. The drain advisory
		// rides on the reply flags; free pages in N; known peers as
		// JSON, so pagers discover joined servers.
		s.pings.Add(1)
		ack.N = uint32(s.store.Free())
		if peers := s.Peers(); len(peers) > 0 {
			if data, err := json.Marshal(wire.PongInfo{Peers: peers}); err == nil {
				ack.Data = data
			}
		}

	case wire.TJoin:
		if m.Host == "" {
			ack.Status = wire.StatusInternal
			ack.Data = []byte("JOIN without server address")
			return ack
		}
		n := s.AddPeer(m.Host)
		ack.N = uint32(n)
		s.logf("%s: peer %s joined (%d known)", s.cfg.Name, m.Host, n)

	case wire.TDrain:
		s.SetDraining(true)
		s.logf("%s: drain requested; %d pages to migrate", s.cfg.Name, s.store.Len())

	case wire.TXorWrite:
		if err := m.VerifyData(); err != nil {
			ack.Status = wire.StatusBadChecksum
			return ack
		}
		s.maybeStall()
		delta, err := s.store.XorWrite(nsKey(tag, m.Key), page.Buf(m.Data))
		if err != nil {
			ack.Status = storeStatus(err)
			return ack
		}
		// Forward old^new to the parity server before acking, so the
		// client may discard the page once the ack arrives (§2.2: the
		// client "should not discard the page just swapped out" until
		// the new parity is computed — our ack is that safety point).
		if err := s.forwardDelta(m.Host, sess.name, m.ParityKey, delta); err != nil {
			s.logf("%s: parity forward to %s failed: %v", s.cfg.Name, m.Host, err)
			ack.Status = wire.StatusInternal
			ack.Data = []byte(err.Error())
		}
		page.Put(delta)

	case wire.TXorDelta:
		if err := m.VerifyData(); err != nil {
			ack.Status = wire.StatusBadChecksum
			return ack
		}
		if err := s.store.XorMerge(nsKey(tag, m.Key), page.Buf(m.Data)); err != nil {
			ack.Status = storeStatus(err)
		}

	case wire.TStat:
		s.mu.Lock()
		clients := len(s.clients)
		s.mu.Unlock()
		st := s.store.Stats()
		occ := s.store.Occupancy()
		info := wire.StatInfo{
			Name:         s.cfg.Name,
			StoredPages:  occ.Total(),
			FreePages:    s.store.Free(),
			InOverflow:   s.store.InOverflow(),
			Pressure:     s.pressure.Load(),
			Clients:      clients,
			Puts:         st.Puts,
			Gets:         st.Gets,
			Deletes:      st.Deletes,
			XorWrites:    st.XorWrites,
			Misses:       st.Misses,
			DeniedAllocs: st.Denied,
			Pings:        s.pings.Load(),
			Draining:     s.draining.Load(),
			Peers:        s.Peers(),
			HotPages:     occ.Hot,
			ColdPages:    occ.Cold,
			DiskPages:    occ.Disk,
			HotTarget:    occ.HotTarget,
			ColdBytes:    occ.ColdBytes,
			HotHits:      st.HotHits,
			ColdHits:     st.ColdHits,
			DiskHits:     st.DiskHits,
			Demotions:    st.Demotions,
			Spills:       st.Spills,
			Promotions:   st.Promotions,
			LostPages:    st.Lost,
		}
		data, err := json.Marshal(info)
		if err != nil {
			ack.Status = wire.StatusInternal
			ack.Data = []byte(err.Error())
			return ack
		}
		ack.Data = data

	case wire.TBye:
		s.mu.Lock()
		sess.ns.saidBye = true
		s.mu.Unlock()

	default:
		ack.Status = wire.StatusInternal
		ack.Data = []byte(fmt.Sprintf("unknown request type %v", m.Type))
	}
	return ack
}

// SetExtraDelay adds d to every page service from now on, emulating
// a degrading network path or host (0 restores the configured speed).
func (s *Server) SetExtraDelay(d time.Duration) { s.extraDelay.Store(int64(d)) }

// maybeStall emulates slow hosts: a constant service delay for
// distant servers, any runtime extra delay, plus disk-backed service
// while under pressure.
func (s *Server) maybeStall() {
	d := s.cfg.ServiceDelay + time.Duration(s.extraDelay.Load())
	if s.pressure.Load() {
		d += s.cfg.PressureDelay
	}
	if d > 0 {
		time.Sleep(d)
	}
}

func storeStatus(err error) wire.Status {
	switch {
	case errors.Is(err, store.ErrNoSpace):
		return wire.StatusNoSpace
	case errors.Is(err, store.ErrNotFound):
		return wire.StatusNotFound
	case errors.Is(err, store.ErrCorrupt):
		// A disk-tier page failed verification: the page is gone, and
		// NOT_FOUND is the protocol's "page is gone" — the client's
		// redundancy policy reconstructs it. Loss is reported, never
		// hidden behind corrupt data.
		return wire.StatusNotFound
	default:
		return wire.StatusInternal
	}
}

// forwardDelta sends an XORDELTA to the parity server at addr on
// behalf of clientName, so the delta lands in a namespace the client
// itself can read during recovery.
func (s *Server) forwardDelta(addr, clientName string, parityKey uint64, delta page.Buf) error {
	if addr == "" {
		return errors.New("server: XORWRITE without parity host")
	}
	link := parityLink{addr, clientName}
	pc, err := s.parityConnFor(link)
	if err != nil {
		return err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	// The peer round trip runs under pc.mu: a wedged parity server must
	// surface as a timeout here, never park the session goroutine
	// inside the critical section.
	pc.conn.SetDeadline(time.Now().Add(parityIOTimeout))
	defer pc.conn.SetDeadline(time.Time{})
	pc.nextID++
	req := (&wire.Msg{Type: wire.TXorDelta, Version: wire.Version2, ID: pc.nextID, Key: parityKey, Data: delta}).WithChecksum()
	if err = pc.fw.Queue(req); err == nil {
		err = pc.fw.Flush()
	}
	var ack *wire.Msg
	if err == nil {
		ack, err = pc.fr.Next()
	}
	if err == nil && (ack.Type != wire.TXorDeltaAck || ack.ID != req.ID) {
		err = fmt.Errorf("server: parity peer %s sent %v id %d in reply to XORDELTA id %d", addr, ack.Type, ack.ID, req.ID)
	}
	if err != nil {
		// An I/O failure, a timeout, or an ack that is not the answer
		// to this delta: the link can no longer be trusted to pair
		// acks with deltas.
		wire.Recycle(ack)
		pc.fr.Release()
		s.invalidateParityConn(link, pc)
		return err
	}
	status := ack.Status
	wire.Recycle(ack)
	return status.Err()
}

func (s *Server) parityConnFor(link parityLink) (*parityConn, error) {
	s.parityMu.Lock()
	pc, ok := s.parityConns[link]
	s.parityMu.Unlock()
	if ok {
		return pc, nil
	}
	dial := s.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(link.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// The handshake a pager performs, bounded like every later
	// exchange on the link (forwardDelta re-arms the deadline per
	// delta). The link then carries one tagged delta at a time under
	// pc.mu — no mux, but every ack is checked against the id of the
	// delta it must answer.
	conn.SetDeadline(time.Now().Add(parityIOTimeout))
	ack, err := wire.Hello(conn, link.client, s.cfg.AuthToken)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: parity peer %s: %w", link.addr, err)
	}
	wire.Recycle(ack)
	pc = &parityConn{conn: conn, fw: wire.NewFrameWriter(conn), fr: wire.NewFrameReader(conn)}
	s.parityMu.Lock()
	if existing, ok := s.parityConns[link]; ok {
		s.parityMu.Unlock()
		conn.Close()
		return existing, nil
	}
	s.parityConns[link] = pc
	s.parityMu.Unlock()
	return pc, nil
}

func (s *Server) invalidateParityConn(link parityLink, pc *parityConn) {
	pc.conn.Close()
	s.parityMu.Lock()
	if s.parityConns[link] == pc {
		delete(s.parityConns, link)
	}
	s.parityMu.Unlock()
}
