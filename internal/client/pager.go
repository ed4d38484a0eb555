package client

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"rmp/internal/disk"
	"rmp/internal/membership"
	"rmp/internal/page"
	"rmp/internal/rs"
	"rmp/internal/wire"
)

// Policy selects the reliability scheme (paper §2.2, §4.7).
type Policy int

const (
	// PolicyNone stores a single copy on one remote server. Fastest;
	// a server crash loses pages. It is the copy engine
	// (policy_copy.go) at shape (1 copy, disk only when short).
	PolicyNone Policy = iota
	// PolicyMirroring stores two copies on two different servers.
	// 2 transfers per pageout, 2x memory. It is the copy engine at
	// shape (2 copies, disk only when short).
	PolicyMirroring
	// PolicyParity is the basic parity scheme: each page has a fixed
	// home server and parity group; on pageout the home server XORs
	// old and new and forwards the delta to the parity server.
	// 2 transfers per pageout (one client->server, one server->parity),
	// 1+1/S memory.
	PolicyParity
	// PolicyParityLogging is the paper's contribution: round-robin
	// placement into fresh parity groups with a client-side parity
	// buffer. 1+1/S transfers per pageout, 1+1/S memory plus overflow.
	// It is the log engine (policy_log.go) at shape (S, 1).
	PolicyParityLogging
	// PolicyWriteThrough stores one remote copy and writes every page
	// to the local disk in parallel (§4.7), treating remote memory as
	// a write-through cache of the disk. It is the copy engine at
	// shape (1 copy, disk always).
	PolicyWriteThrough
	// PolicyRS stripes pageouts into Reed-Solomon RS(k,m) groups: k
	// data shards on k servers plus m parity shards on m more. Any m
	// simultaneous crashes are survivable; (k+m)/k transfers and
	// memory per pageout, amortized. It is the log engine
	// (policy_log.go) at shape (k, m).
	PolicyRS
)

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "NO_RELIABILITY"
	case PolicyMirroring:
		return "MIRRORING"
	case PolicyParity:
		return "PARITY"
	case PolicyParityLogging:
		return "PARITY_LOGGING"
	case PolicyWriteThrough:
		return "WRITE_THROUGH"
	case PolicyRS:
		return "RS"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// allocChunk is how many pages of swap space the pager reserves from
// a server at a time.
const allocChunk = 64

// Config parametrizes a Pager.
type Config struct {
	// ClientName identifies this client; all its connections (and
	// parity deltas forwarded on its behalf) share one namespace per
	// server. Defaults to "rmp-client".
	ClientName string
	// Servers are the remote memory server addresses, in registry
	// order (the paper registers participants "in a common file"; see
	// LoadRegistry). Policies that use a parity server take the last
	// address for it.
	Servers []string
	// Policy is the reliability policy.
	Policy Policy
	// AuthToken authenticates to the servers.
	AuthToken string
	// SwapPath is the local swap file used for disk fallback and the
	// write-through policy; empty means an unlinked temp file.
	SwapPath string
	// DiskModel optionally throttles the local swap file to emulate a
	// 1996 paging disk.
	DiskModel disk.LatencyModel
	// Logger receives diagnostics; nil silences them.
	Logger *log.Logger
	// RebalanceEvery, if positive, starts a background ticker that
	// migrates pages away from pressured servers and promotes disk
	// pages back to remote memory (paper §2.1). Zero disables it;
	// tests and callers can invoke Rebalance directly.
	RebalanceEvery time.Duration
	// WeighTiers makes Rebalance weigh "slow remote" against "move
	// away" before evacuating a pressured server: it reads the
	// server's STAT tier occupancy, and while less than
	// EvacuateDiskFrac of the stored pages sit in the disk tier (the
	// rest served from memory, compressed at worst) and the server
	// still reports free space, the evacuation is skipped — a
	// compressed remote page is still far faster than a paging disk.
	// Default off: a pressure advisory always evacuates, the paper's
	// §2.1 behaviour.
	WeighTiers bool
	// EvacuateDiskFrac is the disk-tier share at which a pressured
	// server gets evacuated even under WeighTiers (default 0.5).
	EvacuateDiskFrac float64
	// NetLatencyThreshold, if positive, enables the paper's §5
	// network-load adaptation: a server whose smoothed request RTT
	// exceeds the threshold is not used for new placements, and when
	// every server is that slow, pageouts go to the local disk (which
	// "may become [cheaper] than the cost of using the network").
	// Disk pages are promoted back by Rebalance once the network
	// recovers.
	NetLatencyThreshold time.Duration
	// FarLatencyFactor, if > 1, enables the §5 heterogeneous-network
	// placement: servers whose RTT exceeds the fastest server's by
	// this factor form a "far" memory tier used only when every near
	// server is full — a four-level hierarchy of local memory, near
	// remote memory, far remote memory, and disk.
	FarLatencyFactor float64
	// OverflowBudget is the fraction of extra (inactive) page
	// versions parity logging may accumulate on the servers before
	// garbage-collecting fragmented groups. Zero means the paper's
	// 10%. Only meaningful for PolicyParityLogging and PolicyRS.
	OverflowBudget float64
	// RSDataShards (k) and RSParityShards (m) set the RS(k,m) group
	// geometry for PolicyRS: groups of k data pages protected by m
	// parity pages, surviving any m simultaneous server crashes.
	// Zero means the defaults k=4, m=2. When fewer than k+m servers
	// are alive the policy degrades (smaller m, then smaller k) and
	// counts the writes rather than denying them.
	RSDataShards   int
	RSParityShards int
	// Membership, when non-nil, enables the live-membership layer:
	// heartbeat failure detection (PING/PONG on a dedicated connection
	// per server), crash confirmation without a data-path error, and
	// background re-protection through a recovery worker instead of
	// synchronous recovery inside the failing request. Nil preserves
	// the paper's behaviour (crashes noticed only when an I/O fails).
	Membership *membership.Config
	// WatchRegistry, when set, polls this registry file and joins any
	// servers appended to it at runtime (file-based dynamic join).
	WatchRegistry string
	// WatchEvery is the registry poll interval (default 2s).
	WatchEvery time.Duration

	// ReqTimeout caps the adaptive per-request deadline (the ceiling
	// of srtt + 4·rttvar, and the deadline used before the first RTT
	// sample). Default 5s.
	ReqTimeout time.Duration
	// ReqTimeoutFloor is the lower bound of the adaptive deadline, so
	// a streak of fast round trips cannot shrink it into false
	// timeouts. Default 50ms.
	ReqTimeoutFloor time.Duration
	// RetryBudget bounds the total time one request may spend on a
	// single server across retries, backoffs, and reconnects before
	// the pager degrades (reconstructing reads through the redundancy
	// policy, sending writes to the local swap store). Default 2s.
	RetryBudget time.Duration
	// RetryBaseDelay and RetryMaxDelay shape the exponential backoff
	// between retries (jittered doubling from base, capped at max).
	// Defaults 5ms and 200ms.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is how many consecutive request timeouts open a
	// server's circuit breaker (default 4); BreakerCooldown is how
	// long an open breaker waits before half-opening for a probe
	// (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Dial, when non-nil, replaces TCP dialing for every connection
	// the pager opens: the data path, retry re-dials, heartbeat
	// probes, and membership revival. Tests inject a deterministic
	// in-memory transport (internal/memnet) here.
	Dial DialFunc
}

// Stats counts pager activity.
type Stats struct {
	PageOuts         uint64
	PageIns          uint64
	NetTransfers     uint64 // page-sized network transfers (incl. parity)
	DiskReads        uint64
	DiskWrites       uint64
	Migrated         uint64
	Recovered        uint64 // pages reconstructed, or brought back to their copy count, after a crash
	Rehomed          uint64 // pages rewritten elsewhere by a log rebuild, or over a corrupt copy in place
	StayedPut        uint64 // evacuations skipped after weighing tiers
	GCPasses         uint64
	Patches          uint64 // log-engine overwrites patched in place at the overflow budget
	LostPages        uint64 // unrecoverable (PolicyNone after crash)
	FallbackPageOuts uint64 // pageouts that went to local disk

	// Membership-layer counters (zero unless Config.Membership is set,
	// except Drained which also counts synchronous drains).
	HeartbeatDeaths uint64 // crashes confirmed by the failure detector
	Joined          uint64 // servers added to the view at runtime
	Drained         uint64 // servers that left gracefully
	Rebuilds        uint64 // background re-protection passes completed
	RebuildFailures uint64 // re-protection passes that reported errors
	RebuildPending  uint64 // confirmed deaths awaiting re-protection
	// Exposure accumulates the window between each confirmed death and
	// the completion of its re-protection pass — the time the data
	// spent at reduced redundancy, which dominates loss probability.
	Exposure time.Duration
	// ExposureAtTol buckets the same windows by the tolerance that
	// remained while they were open: the policy's crash tolerance
	// minus the deaths still awaiting re-protection, clamped into the
	// array (the last bucket collects everything above). For RS(k,m)
	// with one pending death, ExposureAtTol[m-1] accrues — the time
	// during which only m-1 further crashes were survivable.
	// ExposureAtTol[0] is the fully-exposed window where one more
	// crash loses pages.
	ExposureAtTol [5]time.Duration

	// Degraded-mode counters (the log engine: PolicyParityLogging, PolicyRS).
	DegradedWrites  uint64 // pageouts accepted at a layout narrower than the policy's shape
	PolicyFallbacks uint64 // policy constructions that fell back (RS -> write-through)

	// Bounded-data-path counters (retry layer, see retry.go).
	Timeouts          uint64 // requests that missed their adaptive deadline
	Retries           uint64 // request re-issues (after backoff)
	BreakerOpens      uint64 // closed→open circuit-breaker transitions
	DeadlineFallbacks uint64 // retry budgets exhausted; caller degraded
	ChecksumFaults    uint64 // BAD_CHECKSUM verdicts handled as transient
}

// ErrPageLost is returned by PageIn when a page is unrecoverable
// (PolicyNone after its server crashed).
var ErrPageLost = errors.New("client: page lost in server crash")

// ErrNotPagedOut is returned by PageIn for a page never paged out.
var ErrNotPagedOut = errors.New("client: page was never paged out")

// remoteServer is the pager's view of one server. addr is immutable;
// every mutable field is guarded by Pager.mu — the pager is the
// paper's single paging daemon, and all server-state transitions
// (death, revival, drain, pressure, accounting) happen under its one
// lock.
type remoteServer struct {
	addr string
	// conn is replaced on revival and cleared on death. Guarded by
	// Pager.mu — callers snapshot it under the lock, then do I/O on
	// the snapshot after unlocking.
	conn *Conn
	// alive flips on confirmed death/revival. Guarded by Pager.mu.
	alive bool
	// granted is the swap space reserved there. Guarded by Pager.mu.
	granted int
	// used is the pages currently stored there. Guarded by Pager.mu.
	used int
	// pressured is set when the server advises migration; cleared
	// when migration away from it completes. Guarded by Pager.mu.
	pressured bool
	// suspect is set while the failure detector has missed heartbeats
	// but not yet confirmed death; no new placements go there.
	// Guarded by Pager.mu.
	suspect bool
	// draining is set when the server asked to leave gracefully; it
	// takes no new placements and its pages are migrated out.
	// Guarded by Pager.mu.
	draining bool
	// breaker fail-fasts requests once the server keeps timing out;
	// its transitions run under p.mu (see breaker.go / retry.go).
	breaker breaker
	// everConnected distinguishes "never connected" from "died":
	// false with diedCause set means the initial dial failed.
	// Guarded by Pager.mu.
	everConnected bool
	// joinedAt is when the server was added to the view (zero for
	// config-time servers). Guarded by Pager.mu.
	joinedAt time.Time
	// diedAt is when the most recent death was observed. Guarded by
	// Pager.mu.
	diedAt time.Time
	// diedCause is what killed it (or the failed dial). Guarded by
	// Pager.mu.
	diedCause error
}

// headroom is how many more pages the server has promised to take.
//
//rmpvet:holds Pager.mu
func (rs *remoteServer) headroom() int { return rs.granted - rs.used }

// slotRef names a stored copy: server index + storage key.
type slotRef struct {
	srv int
	key uint64
}

// location is a page's record in the pager's table. For the copy
// engine (policy_copy.go) it is the whole truth: replicas are the
// page's whole copies, each on a different server, and onDisk says the
// local swap file holds one too — up to the shape's copy count of
// replicas, plus the disk copy always (WRITE_THROUGH) or only while the
// page is short of replicas. The parity and log engines keep the pages
// they hold in their own structures; the table records only the pages
// they do not: onDisk for a page that fell back to the local disk, lost
// for one that is unrecoverable.
type location struct {
	replicas []slotRef
	onDisk   bool
	lost     bool
}

// on reports whether one of the page's replicas is on server srv.
func (loc *location) on(srv int) bool {
	for _, ref := range loc.replicas {
		if ref.srv == srv {
			return true
		}
	}
	return false
}

// Pager is the Remote Memory Pager: the client that the OS block
// device layer (or our user-space VM) hands pagein/pageout requests
// to. All methods are safe for concurrent use; requests are serialized
// like the paper's "one dedicated paging daemon".
type Pager struct {
	mu  sync.Mutex
	cfg Config

	// servers is the membership view; the slice grows under mu
	// (AddServer) and its entries' mutable fields are likewise
	// guarded by mu.
	servers []*remoteServer
	swap    *disk.Store

	// table maps logical pages to their stored copies. Guarded by mu.
	table map[page.ID]*location
	// nextKey feeds allocKey. Guarded by mu.
	nextKey uint64

	// pol is the active policy strategy; replaced only when a policy
	// switch is requested. Guarded by mu.
	pol policyImpl

	// stats counts operations and faults. Guarded by mu.
	stats Stats
	// closed latches Close. Guarded by mu.
	closed bool

	stopRebalance chan struct{}
	rebalanceWG   sync.WaitGroup

	// Membership layer (nil / empty unless Config.Membership is set).
	hb        *membership.Detector
	rep       *membership.Reprotector
	prober    *hbProber
	stopWatch func()
	// addMu serializes AddServer so concurrent gossip cannot insert
	// the same address twice (the dial happens outside p.mu).
	addMu sync.Mutex
	// rebuildPending maps a dead server index to its death-confirm
	// time while its re-protection pass has not run yet. Entries are
	// consumed by ensureRecovered (background job or synchronous
	// barrier at a policy entry point, whichever comes first).
	// Guarded by mu.
	rebuildPending map[int]time.Time
	// exposedSince marks the start of the current reduced-redundancy
	// accounting window for Stats.ExposureAtTol; it is advanced every
	// time the pending-death count changes. Guarded by mu.
	exposedSince time.Time
}

// policyImpl is the per-policy strategy. Implementations run with
// p.mu held.
type policyImpl interface {
	// pageOut stores data for id.
	pageOut(id page.ID, data page.Buf) error
	// pageIn retrieves the page for id.
	pageIn(id page.ID) (page.Buf, error)
	// free releases storage for id.
	free(id page.ID) error
	// handleCrash recovers from the death of server srv (already
	// marked dead).
	handleCrash(srv int) error
	// evacuate moves pages off the (still alive) pressured or
	// draining server.
	evacuate(srv int) error
	// serverJoined tells the policy that server srv is alive and may
	// take placements (a dynamic join or a revival).
	serverJoined(srv int)
	// redundancy classifies every page by whether it would survive
	// one more server crash. Pure observer: no I/O, no recovery.
	redundancy() Redundancy
	// tolerance is how many further simultaneous server crashes the
	// policy absorbs without losing protected pages, given its
	// current layout (RS reports its live parity width, which shrinks
	// in degraded mode; write-through is bounded by the disk copy,
	// not by servers). Pure observer.
	tolerance() int
}

// New creates a pager, connects to every reachable server, allocates
// initial swap space, and opens the local swap file.
func New(cfg Config) (*Pager, error) {
	if cfg.ClientName == "" {
		cfg.ClientName = "rmp-client"
	}
	p := &Pager{
		cfg:            cfg,
		table:          make(map[page.ID]*location),
		rebuildPending: make(map[int]time.Time),
	}
	for _, addr := range cfg.Servers {
		rs := &remoteServer{addr: addr, breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		if conn, err := DialWithOptions(addr, cfg.ClientName, cfg.AuthToken, p.dialOpts(DialTimeout)); err == nil {
			rs.conn = conn
			rs.alive = true
			rs.everConnected = true
		} else {
			rs.diedCause = err
			p.logf("server %s unreachable at startup: %v", addr, err)
		}
		p.servers = append(p.servers, rs)
	}

	var err error
	if cfg.SwapPath != "" {
		p.swap, err = disk.Open(cfg.SwapPath, cfg.DiskModel)
	} else {
		p.swap, err = disk.OpenTemp(cfg.DiskModel)
	}
	if err != nil {
		p.closeConns()
		return nil, err
	}

	if p.pol, err = p.newPolicy(); err != nil {
		p.swap.Close()
		p.closeConns()
		return nil, err
	}

	if cfg.RebalanceEvery > 0 {
		p.stopRebalance = make(chan struct{})
		p.rebalanceWG.Add(1)
		go p.rebalanceLoop(cfg.RebalanceEvery)
	}
	// The membership layer starts last: its callbacks need p.pol.
	if cfg.Membership != nil {
		p.rep = membership.NewReprotector()
		p.prober = newHBProber(cfg.ClientName, cfg.AuthToken, cfg.Dial)
		p.hb = membership.NewDetector(*cfg.Membership, p.prober, p.onMemberEvent, p.onMemberAck)
		for _, rs := range p.servers {
			p.hb.Track(rs.addr)
		}
	}
	if cfg.WatchRegistry != "" {
		p.stopWatch = WatchRegistry(cfg.WatchRegistry, cfg.WatchEvery, p.onRegistryChange)
	}
	return p, nil
}

// newPolicy builds the configured policy implementation. Runs during
// construction, before the Pager is shared, so it owns all state the
// same way a mu-holding caller would.
//
//rmpvet:holds Pager.mu
func (p *Pager) newPolicy() (policyImpl, error) {
	alive := p.aliveServers()
	switch p.cfg.Policy {
	case PolicyNone:
		return &copyPolicy{p: p, copies: 1}, nil
	case PolicyMirroring:
		if len(alive) < 2 {
			return nil, errors.New("client: mirroring needs >= 2 reachable servers")
		}
		return &copyPolicy{p: p, copies: 2}, nil
	case PolicyParity:
		if len(alive) < 2 {
			return nil, errors.New("client: parity needs >= 1 data server + 1 parity server")
		}
		return newParityPolicy(p), nil
	case PolicyParityLogging:
		if len(alive) < 2 {
			return nil, errors.New("client: parity logging needs >= 1 data server + 1 parity server")
		}
		// Every server alive now but one is a data column; the last
		// holds the XOR parity.
		k := len(alive) - 1
		if k > rs.MaxShards-1 {
			k = rs.MaxShards - 1
		}
		return newLogPolicy(p, k, 1)
	case PolicyWriteThrough:
		if len(alive) < 1 {
			return nil, errors.New("client: write-through needs >= 1 reachable server")
		}
		return &copyPolicy{p: p, copies: 1, diskAlways: true}, nil
	case PolicyRS:
		if len(alive) < 2 {
			// The cluster cannot host even a single RS(1,1) group.
			// Degrade gracefully to write-through (one remote copy
			// plus the local disk) instead of refusing to start.
			if len(alive) < 1 {
				return nil, errors.New("client: RS needs >= 1 reachable server")
			}
			p.logf("rs: only %d reachable server(s); falling back to %v", len(alive), PolicyWriteThrough)
			p.stats.PolicyFallbacks++
			return &copyPolicy{p: p, copies: 1, diskAlways: true}, nil
		}
		k, m := p.cfg.RSDataShards, p.cfg.RSParityShards
		if k <= 0 {
			k = 4
		}
		if m <= 0 {
			m = 2
		}
		return newLogPolicy(p, k, m)
	default:
		return nil, fmt.Errorf("client: unknown policy %v", p.cfg.Policy)
	}
}

func (p *Pager) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf(format, args...)
	}
}

//rmpvet:holds Pager.mu
func (p *Pager) closeConns() {
	for _, rs := range p.servers {
		if rs.conn != nil {
			rs.conn.Close()
		}
	}
}

// aliveServers returns the indexes of servers currently reachable.
//
//rmpvet:holds Pager.mu
func (p *Pager) aliveServers() []int {
	var out []int
	for i, rs := range p.servers {
		if rs.alive {
			out = append(out, i)
		}
	}
	return out
}

// allocKey issues a fresh storage key (< 2^48, see server package).
//
//rmpvet:holds Pager.mu
func (p *Pager) allocKey() uint64 {
	k := p.nextKey
	p.nextKey++
	return k
}

// Close says goodbye to every server and closes the swap file. The
// membership machinery is stopped first, without p.mu held — its
// callbacks and jobs take p.mu themselves.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	if p.stopWatch != nil {
		p.stopWatch()
	}
	if p.hb != nil {
		p.hb.Close()
	}
	if p.rep != nil {
		p.rep.Close()
	}
	if p.stopRebalance != nil {
		close(p.stopRebalance)
		p.rebalanceWG.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rs := range p.servers {
		if rs.alive && rs.conn != nil {
			rs.conn.Bye()
		}
	}
	if p.prober != nil {
		p.prober.Close()
	}
	return p.swap.Close()
}

// Stats returns a snapshot of the pager's counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.RebuildPending = uint64(len(p.rebuildPending))
	return s
}

// ServerInfo is one row of a cluster survey.
type ServerInfo struct {
	Addr      string
	Alive     bool
	Pressured bool
	Suspect   bool // heartbeats missing, death not yet confirmed
	Draining  bool // asked to leave; pages being migrated out
	RTT       time.Duration
	// RTTVar and ReqDeadline expose the adaptive-timeout state: the
	// Jacobson variance estimate and the deadline the next page-sized
	// request would get (srtt + 4·rttvar + per-byte allowance, clamped).
	RTTVar      time.Duration
	ReqDeadline time.Duration
	// Breaker is the circuit-breaker state: closed, open, or half-open.
	// BreakerFails is the current run of consecutive timeouts.
	Breaker      string
	BreakerFails int
	Stat         wire.StatInfo // zero when the server is unreachable
	// EverConnected false with DiedCause set means the server never
	// answered at all (bad address, never started); true means it was
	// up and died at DiedAt.
	EverConnected bool
	DiedAt        time.Time // zero if never died since last revival
	DiedCause     string    // last death (or failed dial) error, "" if none
}

// Survey polls every configured server's state — the operational view
// behind `rmpctl survey`, as a library call.
func (p *Pager) Survey() []ServerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ServerInfo, 0, len(p.servers))
	for i, rs := range p.servers {
		info := ServerInfo{
			Addr: rs.addr, Alive: rs.alive, Pressured: rs.pressured,
			Suspect: rs.suspect, Draining: rs.draining,
			Breaker: rs.breaker.describe(time.Now()), BreakerFails: rs.breaker.failures,
			EverConnected: rs.everConnected, DiedAt: rs.diedAt,
		}
		if rs.diedCause != nil {
			info.DiedCause = rs.diedCause.Error()
		}
		if rs.alive {
			info.RTT = rs.conn.RTT()
			info.RTTVar = rs.conn.RTTVar()
			info.ReqDeadline = rs.conn.RequestDeadline(page.Size)
			var st wire.StatInfo
			err := p.withConn(i, true, func(c *Conn) error {
				var serr error
				st, serr = c.Stat()
				return serr
			})
			switch {
			case err == nil:
				info.Stat = st
			case errors.Is(err, ErrBreakerOpen):
				// The breaker is refusing requests but the server is not
				// confirmed dead; report the view without a fresh Stat.
			case isConnError(err):
				p.serverDied(i, err)
				info.Alive = false
				info.DiedAt = rs.diedAt
				info.DiedCause = rs.diedCause.Error()
			}
		}
		out = append(out, info)
	}
	return out
}

// PageOut stores the page under the configured reliability policy.
func (p *Pager) PageOut(id page.ID, data page.Buf) error {
	if err := data.CheckLen(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("client: pager closed")
	}
	p.stats.PageOuts++
	return p.pol.pageOut(id, data)
}

// PageIn retrieves a previously paged-out page. The returned buffer is
// the caller's: nothing in the pager references it, and a caller done
// with it may hand it to page.Put.
func (p *Pager) PageIn(id page.ID) (page.Buf, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("client: pager closed")
	}
	p.stats.PageIns++
	return p.pol.pageIn(id)
}

// Free releases the swap space of the given pages.
func (p *Pager) Free(ids ...page.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := p.pol.free(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- shared transfer helpers (run with p.mu held) -----------------------

// pickServer returns the most promising server for a new placement;
// exclude lists server indexes to skip. Returns -1 if no server can
// take a page (the caller then falls back to the local disk).
//
//rmpvet:holds Pager.mu
func (p *Pager) pickServer(exclude ...int) int {
	allowed := make([]int, len(p.servers))
	for i := range p.servers {
		allowed[i] = i
	}
	return p.pickFrom(allowed, exclude...)
}

// pickFrom implements the selection policy over an allowed set:
//
//  1. only alive, unpressured servers with headroom qualify (topping
//     up swap reservations as needed) — the paper's §2.1 selection;
//  2. servers slower than Config.NetLatencyThreshold are skipped —
//     the §5 network-load adaptation;
//  3. with Config.FarLatencyFactor set, near-tier servers are
//     preferred over far ones — the §5 heterogeneous hierarchy;
//  4. ties break to the most free headroom ("the most promising
//     server").
//
//rmpvet:holds Pager.mu
func (p *Pager) pickFrom(allowed []int, exclude ...int) int {
	skip := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	type cand struct {
		idx  int
		room int
		rtt  time.Duration
	}
	var cands []cand
	for _, i := range allowed {
		rs := p.servers[i]
		if !rs.alive || rs.pressured || rs.suspect || rs.draining || skip[i] {
			continue
		}
		if rs.headroom() <= 0 {
			p.topUp(i)
		}
		if !rs.alive {
			continue // topUp discovered a dead server
		}
		room := rs.headroom()
		if room <= 0 {
			continue
		}
		rtt := rs.conn.RTT()
		if p.cfg.NetLatencyThreshold > 0 && rtt > p.cfg.NetLatencyThreshold {
			continue // slower than the local disk would be
		}
		cands = append(cands, cand{idx: i, room: room, rtt: rtt})
	}
	if len(cands) == 0 {
		return -1
	}
	if f := p.cfg.FarLatencyFactor; f > 1 {
		// Establish the near tier relative to the fastest measured
		// server; unmeasured servers (rtt 0) count as near.
		min := time.Duration(0)
		for _, c := range cands {
			if c.rtt > 0 && (min == 0 || c.rtt < min) {
				min = c.rtt
			}
		}
		if min > 0 {
			far := time.Duration(float64(min) * f)
			near := cands[:0]
			for _, c := range cands {
				if c.rtt <= far {
					near = append(near, c)
				}
			}
			if len(near) > 0 {
				cands = near
			}
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.room > best.room {
			best = c
		}
	}
	return best.idx
}

// topUp tries to reserve another chunk of swap space on server i.
// ALLOC replay after a lost ack over-grants on the server side only
// (reclaimed at BYE), so the request is treated as idempotent.
//
//rmpvet:holds Pager.mu
func (p *Pager) topUp(i int) {
	rs := p.servers[i]
	var n int
	err := p.withConn(i, true, func(c *Conn) error {
		var aerr error
		n, aerr = c.Alloc(allocChunk)
		return aerr
	})
	if err != nil {
		if isConnError(err) {
			p.serverDied(i, err)
		}
		return
	}
	rs.granted += n
	if rs.conn.PressureAdvised() {
		rs.pressured = true
	}
}

// sendPage stores data under key on server srv, accounting transfers
// and detecting death. PAGEOUT is keyed by block, so the retry layer
// may replay it safely: a duplicate lands the same bytes under the
// same key.
//
//rmpvet:holds Pager.mu
func (p *Pager) sendPage(srv int, key uint64, data page.Buf, fresh bool) error {
	rs := p.servers[srv]
	if err := p.withConn(srv, true, func(c *Conn) error {
		return c.PageOut(key, data)
	}); err != nil {
		if isConnError(err) {
			p.serverDied(srv, err)
		}
		return err
	}
	p.stats.NetTransfers++
	if fresh {
		rs.used++
	}
	if rs.conn.PressureAdvised() {
		rs.pressured = true
	}
	return nil
}

// sendXor stores data under key on server srv, which forwards old XOR
// new to the parity shard parityKey on paritySrv before it acks: two
// page transfers. With replay set the retry layer may re-issue it, and
// a re-issue of a write that was stored forwards a zero delta — safe
// only for a caller that recomputes the parity whenever any attempt
// failed. Without it the write gets one attempt, and a missed deadline
// alone — the session still framed, the server perhaps only slow — is
// returned without declaring the server dead: the caller must treat the
// parity as in doubt either way, and the next request that really finds
// the server gone says so. Transfers and death are otherwise accounted
// as in sendPage.
//
//rmpvet:holds Pager.mu
func (p *Pager) sendXor(srv int, key uint64, data page.Buf, paritySrv int, parityKey uint64, replay bool) error {
	rs := p.servers[srv]
	parityAddr := p.servers[paritySrv].addr
	if err := p.withConn(srv, replay, func(c *Conn) error {
		return c.XorWrite(key, data, parityAddr, parityKey)
	}); err != nil {
		lateAck := !replay && errors.Is(err, ErrReqTimeout) && !rs.conn.Broken()
		if isConnError(err) && !lateAck {
			p.serverDied(srv, err)
		}
		return err
	}
	p.stats.NetTransfers += 2
	if rs.conn.PressureAdvised() {
		rs.pressured = true
	}
	return nil
}

// sendPageBatch stores several pages on ONE server in a single
// pipelined exchange: every PAGEOUT frame is written back to back and
// the acks are collected afterwards, so the batch costs about one
// round trip instead of one per page (see Conn.PageOutBatch). PAGEOUT
// is keyed by block, so the retry layer may replay the whole batch
// safely after a transport failure.
//
//rmpvet:holds Pager.mu
func (p *Pager) sendPageBatch(srv int, keys []uint64, pages []page.Buf, fresh bool) error {
	if len(keys) == 0 {
		return nil
	}
	rs := p.servers[srv]
	if err := p.withConn(srv, true, func(c *Conn) error {
		return c.PageOutBatch(keys, pages)
	}); err != nil {
		if isConnError(err) {
			p.serverDied(srv, err)
		}
		return err
	}
	p.stats.NetTransfers += uint64(len(keys))
	if fresh {
		rs.used += len(keys)
	}
	if rs.conn.PressureAdvised() {
		rs.pressured = true
	}
	return nil
}

// sendReq is one transfer for sendPages.
type sendReq struct {
	srv   int
	key   uint64
	data  page.Buf
	fresh bool
}

// sendPages performs several page transfers concurrently — the wire
// I/O overlaps (each Conn serializes itself), while all shared pager
// state is updated single-threaded after the joins. Mirroring uses it
// so a pageout costs one round trip instead of two.
//
//rmpvet:holds Pager.mu
func (p *Pager) sendPages(reqs []sendReq) []error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		rs := p.servers[r.srv]
		if !rs.alive {
			errs[i] = fmt.Errorf("client: server %s is down", rs.addr)
			continue
		}
		wg.Add(1)
		go func(i int, conn *Conn, r sendReq) {
			defer wg.Done()
			errs[i] = conn.PageOut(r.key, r.data)
		}(i, rs.conn, r)
	}
	wg.Wait()
	for i, r := range reqs {
		rs := p.servers[r.srv]
		if !rs.alive {
			continue
		}
		if errs[i] != nil && isConnError(errs[i]) {
			// The concurrent attempt ran outside the retry layer; give
			// the transfer its bounded retries now, serially. The
			// session stays framed across a deadline miss — the late
			// ack is discarded by request id — so the conn is kept
			// unless it is broken.
			p.noteTransportFailure(rs, errs[i])
			if !errors.Is(errs[i], ErrReqTimeout) || rs.conn.Broken() {
				rs.conn.Close()
			}
			errs[i] = p.withConn(r.srv, true, func(c *Conn) error {
				return c.PageOut(r.key, r.data)
			})
		}
		if errs[i] != nil {
			if isConnError(errs[i]) {
				p.serverDied(r.srv, errs[i])
			}
			continue
		}
		p.stats.NetTransfers++
		if r.fresh {
			rs.used++
		}
		if rs.conn.PressureAdvised() {
			rs.pressured = true
		}
	}
	return errs
}

// fetchPage reads the page stored under key on server srv. PAGEIN is
// read-only, so the retry layer replays it freely.
//
//rmpvet:holds Pager.mu
func (p *Pager) fetchPage(srv int, key uint64) (page.Buf, error) {
	rs := p.servers[srv]
	var data page.Buf
	err := p.withConn(srv, true, func(c *Conn) error {
		var ferr error
		data, ferr = c.PageIn(key)
		return ferr
	})
	if err != nil {
		if isConnError(err) {
			p.serverDied(srv, err)
		}
		return nil, err
	}
	p.stats.NetTransfers++
	if rs.conn.PressureAdvised() {
		rs.pressured = true
	}
	return data, nil
}

// freeSlots releases keys on server srv; failures on dead servers are
// ignored (their memory is gone anyway). A replayed FREE whose first
// ack was lost answers NOT_FOUND — that still means "freed", so the
// status is tolerated.
//
//rmpvet:holds Pager.mu
func (p *Pager) freeSlots(srv int, keys ...uint64) {
	rs := p.servers[srv]
	if !rs.alive || len(keys) == 0 {
		return
	}
	err := p.withConn(srv, true, func(c *Conn) error {
		return c.Free(keys...)
	})
	if err != nil {
		var se *wire.StatusError
		if errors.As(err, &se) && se.Status == wire.StatusNotFound {
			err = nil
		}
	}
	if err != nil {
		if isConnError(err) {
			p.serverDied(srv, err)
		}
		return
	}
	rs.used -= len(keys)
	if rs.used < 0 {
		rs.used = 0
	}
}

// isConnError distinguishes transport failures (server crash) from
// server-reported statuses like NOT_FOUND.
func isConnError(err error) bool {
	var se *wire.StatusError
	return !errors.As(err, &se)
}

// serverDied marks a server dead and triggers policy recovery: either
// synchronously (no membership layer — the paper's behaviour) or by
// queueing a background re-protection job, so the failing request
// returns promptly and redundancy is restored off the data path.
//
//rmpvet:holds Pager.mu
func (p *Pager) serverDied(srv int, cause error) {
	rs := p.servers[srv]
	if !rs.alive {
		return
	}
	p.logf("server %s died: %v", rs.addr, cause)
	rs.alive = false
	rs.granted, rs.used = 0, 0
	rs.diedAt = time.Now()
	rs.diedCause = cause
	if rs.conn != nil {
		rs.conn.Close()
	}
	if p.rep != nil {
		p.accrueExposure()
		p.rebuildPending[srv] = rs.diedAt
		p.rep.Enqueue(membership.Job{
			Kind: membership.JobRebuild, Addr: rs.addr, ConfirmedAt: rs.diedAt,
			Run: func() error {
				p.mu.Lock()
				defer p.mu.Unlock()
				if p.closed {
					return nil
				}
				p.ensureRecovered(srv)
				return nil
			},
		})
		return
	}
	if err := p.pol.handleCrash(srv); err != nil {
		p.logf("recovery after %s crash: %v", rs.addr, err)
	}
}

// ensureRecovered runs the pending re-protection pass for srv, if
// any, and accounts the exposure window (p.mu held). Idempotent: the
// pending entry is consumed by whoever gets here first — the
// background job, a policy entry point that needs consistent state,
// or a revival.
//
//rmpvet:holds Pager.mu
func (p *Pager) ensureRecovered(srv int) {
	diedAt, ok := p.rebuildPending[srv]
	if !ok {
		return
	}
	p.accrueExposure()
	delete(p.rebuildPending, srv)
	rs := p.servers[srv]
	if err := p.pol.handleCrash(srv); err != nil {
		p.stats.RebuildFailures++
		p.logf("re-protection after %s crash: %v", rs.addr, err)
	} else {
		p.stats.Rebuilds++
	}
	p.stats.Exposure += time.Since(diedAt)
}

// accrueExposure closes the current reduced-redundancy window, if
// one is open, crediting it to the remaining-tolerance bucket the
// pager sat in (policy tolerance minus pending deaths, clamped into
// Stats.ExposureAtTol), and starts the next window. Called whenever
// the pending-death count is about to change.
//
//rmpvet:holds Pager.mu
func (p *Pager) accrueExposure() {
	now := time.Now()
	if n := len(p.rebuildPending); n > 0 && !p.exposedSince.IsZero() {
		tol := p.pol.tolerance() - n
		if tol < 0 {
			tol = 0
		}
		if tol >= len(p.stats.ExposureAtTol) {
			tol = len(p.stats.ExposureAtTol) - 1
		}
		p.stats.ExposureAtTol[tol] += now.Sub(p.exposedSince)
	}
	p.exposedSince = now
}

// ensureAllRecovered drains every pending re-protection pass (p.mu
// held). The parity policies call this before touching group
// bookkeeping: their invariants assume crash recovery ran before any
// other mutation, so the asynchronous gap must close here.
//
//rmpvet:holds Pager.mu
func (p *Pager) ensureAllRecovered() {
	for len(p.rebuildPending) > 0 {
		for srv := range p.rebuildPending {
			p.ensureRecovered(srv) // may add new entries; restart the scan
			break
		}
	}
}

// entry returns id's record in the pager's table, making one if need
// be.
//
//rmpvet:holds Pager.mu
func (p *Pager) entry(id page.ID) *location {
	loc := p.table[id]
	if loc == nil {
		loc = &location{}
		p.table[id] = loc
	}
	return loc
}

// diskFallback records id as living on the local swap device and
// writes it there — where the parity and log engines put a pageout no
// server can take.
//
//rmpvet:holds Pager.mu
func (p *Pager) diskFallback(id page.ID, data page.Buf) error {
	p.stats.FallbackPageOuts++
	p.entry(id).onDisk = true
	return p.diskPut(id, data)
}

// diskPut stores a page in the local swap file under the page id.
//
//rmpvet:holds Pager.mu
func (p *Pager) diskPut(id page.ID, data page.Buf) error {
	if err := p.swap.Put(uint64(id), data); err != nil {
		return err
	}
	p.stats.DiskWrites++
	return nil
}

// diskGet reads a page from the local swap file.
//
//rmpvet:holds Pager.mu
func (p *Pager) diskGet(id page.ID) (page.Buf, error) {
	data, err := p.swap.Get(uint64(id))
	if err != nil {
		return nil, err
	}
	p.stats.DiskReads++
	return data, nil
}

// --- rebalancing (paper §2.1) -------------------------------------------

func (p *Pager) rebalanceLoop(every time.Duration) {
	defer p.rebalanceWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stopRebalance:
			return
		case <-t.C:
			if err := p.Rebalance(); err != nil {
				p.logf("rebalance: %v", err)
			}
		}
	}
}

// Rebalance performs one pass of the paper's load-adaptation policy:
// pending crash recoveries run first, dead servers are re-dialed (a
// restarted workstation rejoins the donor pool with empty memory),
// draining servers are evacuated and released, pages are migrated
// away from servers that advised memory pressure, and pages that fell
// back to the local disk are promoted to servers with free memory.
func (p *Pager) Rebalance() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.ensureAllRecovered()
	// Refresh load/pressure/drain via LOAD polls; try to revive the
	// dead. Drained servers are not re-dialed — they left on purpose
	// (the membership layer revives them if their drain is cancelled).
	for i, rs := range p.servers {
		if !rs.alive {
			if !rs.draining {
				p.reviveServer(i)
			}
			continue
		}
		if err := p.withConn(i, true, func(c *Conn) error {
			_, lerr := c.Load()
			return lerr
		}); err != nil {
			if errors.Is(err, ErrBreakerOpen) {
				continue // fail fast; the breaker's probe decides later
			}
			p.serverDied(i, err)
			continue
		}
		if rs.conn.PressureAdvised() {
			rs.pressured = true
		} else {
			rs.pressured = false
		}
		if rs.conn.DrainAdvised() {
			rs.draining = true
		}
	}
	var firstErr error
	for i, rs := range p.servers {
		if !rs.alive {
			continue
		}
		if rs.draining {
			if err := p.finishDrain(i); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if rs.pressured {
			if p.cfg.WeighTiers && p.tierTolerable(i) {
				// The server is pressured but serving from memory:
				// staying beats re-homing (§2.1 weighed against the
				// tiered store's slope).
				p.stats.StayedPut++
				continue
			}
			if err := p.pol.evacuate(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := p.promoteDiskPages(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// tierTolerable reports whether a pressured server's tier mix makes
// staying cheaper than evacuating: the pager fetches STAT and keeps
// its pages while the disk-tier share stays under EvacuateDiskFrac
// and the server still advertises free space. Any error says
// "evacuate" — the conservative default.
//
//rmpvet:holds Pager.mu
func (p *Pager) tierTolerable(srv int) bool {
	frac := p.cfg.EvacuateDiskFrac
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	var info wire.StatInfo
	if err := p.withConn(srv, true, func(c *Conn) error {
		var serr error
		info, serr = c.Stat()
		return serr
	}); err != nil {
		return false
	}
	total := info.HotPages + info.ColdPages + info.DiskPages
	if total == 0 {
		return true // nothing stored there; nothing worth moving
	}
	if info.FreePages <= 0 {
		return false
	}
	return float64(info.DiskPages) < frac*float64(total)
}

// promoteDiskPages re-pages the pages that live on the local disk alone
// out through the policy now that remote space may exist. The policy's
// pageOut takes the page over from its disk copy, and decides by its own
// rule whether that copy stays (write-through) or goes — the disk holds
// the page at every instant until then.
//
//rmpvet:holds Pager.mu
func (p *Pager) promoteDiskPages() error {
	var promote []page.ID
	for id, loc := range p.table {
		if loc.onDisk && len(loc.replicas) == 0 && !loc.lost {
			promote = append(promote, id)
		}
	}
	for _, id := range promote {
		if p.pickServer() < 0 {
			return nil // still no room anywhere
		}
		data, err := p.diskGet(id)
		if err != nil {
			return err
		}
		if err := p.pol.pageOut(id, data); err != nil {
			return err
		}
		p.stats.Migrated++
	}
	return nil
}
