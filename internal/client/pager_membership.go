package client

import (
	"errors"
	"sync"
	"time"

	"rmp/internal/membership"
)

// This file binds the pager to the membership layer: the heartbeat
// prober (PING over a dedicated connection per server), the detector
// event/ack handlers, dynamic join (AddServer, registry watching,
// peer gossip), graceful drain, revival, and the Redundancy survey.

// hbProber implements membership.Prober over dedicated heartbeat
// connections, one per server, separate from the data path — so a
// data transfer in flight cannot delay a heartbeat into a false
// suspicion, and a heartbeat cannot queue behind a slow pageout.
type hbProber struct {
	clientName, token string
	// dial is the injected transport (nil = TCP), mirroring the
	// pager's Config.
	dial DialFunc

	mu sync.Mutex
	// conns caches one heartbeat connection per server address.
	// Guarded by mu.
	conns map[string]*Conn
	// closed latches Close so in-flight probes stop caching
	// connections. Guarded by mu.
	closed bool
}

func newHBProber(clientName, token string, dial DialFunc) *hbProber {
	return &hbProber{clientName: clientName, token: token, dial: dial, conns: make(map[string]*Conn)}
}

var errProberClosed = errors.New("client: heartbeat prober closed")

// Probe dials (or reuses) the heartbeat connection to addr and sends
// one PING. Both the dial and the exchange are bounded by timeout. On
// any failure the cached connection is discarded so the next probe
// re-dials from scratch.
func (h *hbProber) Probe(addr string, timeout time.Duration) (membership.Ack, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return membership.Ack{}, errProberClosed
	}
	c := h.conns[addr]
	h.mu.Unlock()
	if c == nil {
		// The HELLO exchange must respect the probe timeout too: against
		// a black-holed server the TCP connect succeeds and only the
		// request deadline bounds the handshake.
		nc, err := DialWithOptions(addr, h.clientName, h.token, DialOptions{
			Timeout:   timeout,
			Deadlines: Deadlines{Floor: timeout, Ceil: timeout},
			Dial:      h.dial,
		})
		if err != nil {
			return membership.Ack{}, err
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			nc.Close()
			return membership.Ack{}, errProberClosed
		}
		h.conns[addr] = nc
		h.mu.Unlock()
		c = nc
	}
	free, draining, peers, err := c.Ping(timeout)
	if err != nil {
		c.Close()
		h.mu.Lock()
		if h.conns[addr] == c {
			delete(h.conns, addr)
		}
		h.mu.Unlock()
		return membership.Ack{}, err
	}
	return membership.Ack{FreePages: free, Draining: draining, Peers: peers}, nil
}

func (h *hbProber) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, c := range h.conns {
		c.Close()
	}
	h.conns = make(map[string]*Conn)
}

// serverIdx finds the index of addr in the server table (p.mu held).
//
//rmpvet:holds Pager.mu
func (p *Pager) serverIdx(addr string) int {
	for i, rs := range p.servers {
		if rs.addr == addr {
			return i
		}
	}
	return -1
}

// onMemberEvent reacts to failure-detector transitions. Runs on a
// probe goroutine, never with the detector lock held.
func (p *Pager) onMemberEvent(ev membership.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	srv := p.serverIdx(ev.Addr)
	if srv < 0 {
		return
	}
	rs := p.servers[srv]
	switch ev.To {
	case membership.StateSuspect:
		rs.suspect = true
		p.logf("server %s suspect: %v", rs.addr, ev.Cause)
	case membership.StateDead:
		rs.suspect = true
		if rs.alive {
			// Death confirmed by missed heartbeats, not by a failed
			// data-path request — the detector's whole point.
			p.stats.HeartbeatDeaths++
			p.serverDied(srv, ev.Cause)
		}
	case membership.StateAlive:
		rs.suspect = false
		if !rs.alive && !rs.draining {
			p.reviveServer(srv)
		}
	}
}

// onMemberAck consumes successful probe results: drain advisories and
// gossiped peers. Runs on a probe goroutine.
func (p *Pager) onMemberAck(addr string, ack membership.Ack) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if srv := p.serverIdx(addr); srv >= 0 {
		rs := p.servers[srv]
		rs.suspect = false
		switch {
		case ack.Draining && !rs.draining && rs.alive:
			// Mark immediately so pickFrom stops placing pages there,
			// then evacuate in the background.
			rs.draining = true
			p.rep.Enqueue(membership.Job{
				Kind: membership.JobDrain, Addr: rs.addr, ConfirmedAt: time.Now(),
				Run: func() error {
					p.mu.Lock()
					defer p.mu.Unlock()
					if p.closed {
						return nil
					}
					return p.finishDrain(srv)
				},
			})
		case !ack.Draining && rs.draining && !rs.alive:
			// The drain was cancelled (operator kept the server): it
			// answers heartbeats and no longer advises drain. Rejoin it.
			rs.draining = false
			p.reviveServer(srv)
		}
	}
	var unknown []string
	for _, peer := range ack.Peers {
		if p.serverIdx(peer) < 0 {
			unknown = append(unknown, peer)
		}
	}
	p.mu.Unlock()
	for _, peer := range unknown {
		if err := p.AddServer(peer); err != nil {
			p.logf("joining gossiped peer %s: %v", peer, err)
		}
	}
}

// onRegistryChange is the WatchRegistry callback: join-only — servers
// added to the file join the view; removals are ignored (leaving is
// the drain protocol's job, not an edit war's).
func (p *Pager) onRegistryChange(servers []string) {
	for _, addr := range servers {
		p.mu.Lock()
		known := p.serverIdx(addr) >= 0
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		if !known {
			if err := p.AddServer(addr); err != nil {
				p.logf("joining %s from registry: %v", addr, err)
			}
		}
	}
}

// AddServer adds a server to the live view at runtime (dynamic join)
// and makes it eligible for new placements. If the dial fails the
// server is still tracked — dead, with the dial error as cause — so
// the failure detector revives it once it becomes reachable. The
// error is the dial error, if any.
func (p *Pager) AddServer(addr string) error {
	p.addMu.Lock()
	defer p.addMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("client: pager closed")
	}
	if p.serverIdx(addr) >= 0 {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	// Dial outside p.mu: a slow join must not stall the data path.
	// addMu keeps concurrent joins of the same address out.
	conn, dialErr := DialWithOptions(addr, p.cfg.ClientName, p.cfg.AuthToken, p.dialOpts(DialTimeout))

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return errors.New("client: pager closed")
	}
	rs := &remoteServer{addr: addr, joinedAt: time.Now(),
		breaker: newBreaker(p.cfg.BreakerThreshold, p.cfg.BreakerCooldown)}
	if dialErr == nil {
		rs.conn = conn
		rs.alive = true
		rs.everConnected = true
	} else {
		rs.diedCause = dialErr
	}
	idx := len(p.servers)
	p.servers = append(p.servers, rs)
	p.stats.Joined++
	if rs.alive {
		p.pol.serverJoined(idx)
	}
	p.logf("server %s joined the view (alive=%v)", addr, rs.alive)
	p.mu.Unlock()

	if p.hb != nil {
		p.hb.Track(addr)
	}
	return dialErr
}

// reviveServer re-dials a dead server and hands it back to the policy
// (p.mu held). Any pending re-protection for it runs first, under the
// pre-revival layout — mixing a rebuild with a rejoin would let the
// policy hand reconstruction reads to the server that just lost
// everything.
//
//rmpvet:holds Pager.mu
func (p *Pager) reviveServer(srv int) bool {
	rs := p.servers[srv]
	if rs.alive || rs.draining {
		return false
	}
	// A server whose breaker opened (it kept timing out) is readmitted
	// only through the breaker's own schedule: wait out the cooldown,
	// then let the re-dial + HELLO below act as the half-open probe.
	if !rs.breaker.allow(time.Now()) {
		return false
	}
	p.ensureRecovered(srv)
	conn, err := DialWithOptions(rs.addr, p.cfg.ClientName, p.cfg.AuthToken, p.dialOpts(DialTimeout))
	if err != nil {
		rs.breaker.failure(time.Now())
		return false
	}
	rs.breaker.reset()
	rs.conn = conn
	rs.alive = true
	rs.everConnected = true
	rs.granted, rs.used = 0, 0
	rs.pressured = false
	rs.suspect = false
	rs.diedAt = time.Time{}
	rs.diedCause = nil
	p.pol.serverJoined(srv)
	p.logf("server %s rejoined", rs.addr)
	return true
}

// finishDrain completes a graceful leave (p.mu held): migrate every
// page off the draining server, say BYE (the server purges this
// client's pages and reservation once our last session closes), and
// retire it from the live view. The draining flag stays set so the
// server is neither picked nor re-dialed; a cancelled drain revives
// it via the heartbeat path.
//
//rmpvet:holds Pager.mu
func (p *Pager) finishDrain(srv int) error {
	rs := p.servers[srv]
	if !rs.alive {
		return nil // died mid-drain; crash recovery handled it
	}
	p.ensureAllRecovered()
	if err := p.pol.evacuate(srv); err != nil {
		return err
	}
	rs.conn.Bye()
	rs.alive = false
	rs.granted, rs.used = 0, 0
	p.stats.Drained++
	p.logf("server %s drained and released", rs.addr)
	return nil
}

// Redundancy classifies every paged-out page by what one more server
// crash would do to it.
type Redundancy struct {
	// Full pages survive any single additional server crash (a second
	// remote copy, an intact parity group, or a local-disk copy —
	// the disk does not die with a server).
	Full int
	// Degraded pages are currently readable but could be lost by one
	// more crash (single remote copy, broken parity group).
	Degraded int
	// Lost pages are already unrecoverable.
	Lost int
}

// Redundancy reports the current redundancy of every page. It is a
// pure observer — no recovery is triggered — so tests and operators
// can poll it to watch background re-protection converge.
func (p *Pager) Redundancy() Redundancy {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Redundancy{}
	}
	return p.pol.redundancy()
}
