package client

import (
	"errors"
	"fmt"

	"rmp/internal/page"
)

// parityPolicy is the basic parity scheme (paper §2.2 "Parity"):
// every page has a fixed home server and a fixed parity group — group
// g contains the page at slot g of each data server, and the parity
// server holds the XOR of the group. On pageout the client sends the
// new contents to the home server, which computes old XOR new and
// forwards the delta to the parity server (two page transfers per
// pageout). Memory overhead is only 1/S, but the runtime overhead is
// what motivated the paper to invent parity logging.
//
//rmpvet:holds Pager.mu
type parityPolicy struct {
	p *Pager

	parityIdx int   // server acting as the parity store
	dataIdx   []int // data servers

	homes  map[page.ID]parityHome
	groups map[int]*parityGroup
	slots  map[int]*srvSlots // per data server slot allocator
}

type parityHome struct {
	srv  int
	slot int
	key  uint64
}

type parityGroup struct {
	slot      int
	parityKey uint64
	members   map[int]page.ID // server index -> page
	// stale means the parity page no longer matches the registered
	// members: an unrecoverable member was dropped without XORing its
	// contribution out, or a recompute could not read every member.
	// Reconstructing through a stale group would XOR the leftover
	// contribution into the result — fabricated bytes with no checksum
	// to catch them — so reconstruction refuses stale groups (fail
	// closed) until freshenStaleGroups recomputes the parity.
	stale bool
}

type srvSlots struct {
	next int
	free []int
}

func (s *srvSlots) alloc() int {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	slot := s.next
	s.next++
	return slot
}

func (s *srvSlots) release(slot int) { s.free = append(s.free, slot) }

// newParityPolicy dedicates the last alive server to parity, the rest
// to data — mirroring the paper's "S servers ... plus a parity
// server" arrangement.
func newParityPolicy(p *Pager) *parityPolicy {
	alive := p.aliveServers()
	pp := &parityPolicy{
		p:         p,
		parityIdx: alive[len(alive)-1],
		dataIdx:   alive[:len(alive)-1],
		homes:     make(map[page.ID]parityHome),
		groups:    make(map[int]*parityGroup),
		slots:     make(map[int]*srvSlots),
	}
	for _, i := range pp.dataIdx {
		pp.slots[i] = &srvSlots{}
	}
	return pp
}

// tolerance: one parity server covers any one crash.
func (pp *parityPolicy) tolerance() int { return 1 }

// xorWrite performs the two-transfer pageout: client -> home server
// (which stores the page) and home server -> parity server (the
// delta). Both count as network page transfers.
//
// A dead parity server surfaces here as a server-reported INTERNAL
// status (the home server could not forward the delta), not as a
// connection error — so that case probes the parity server directly
// and triggers its crash handling.
//
// An XORWRITE that did not ack leaves its group's parity in doubt until
// recomputed (the log engine's patch obeys the same rule): a status
// means the page may be stored with its delta refused, and the replay
// of a stored write forwards new XOR new — nothing — so a later success
// would leave the old contribution in the parity for good. g goes
// stale and its parity is recomputed from the members as stored, here,
// before any retry. (A transport failure takes the home server's crash
// path instead, which decodes the page from the parity as it stands.)
func (pp *parityPolicy) xorWrite(srv int, key uint64, data page.Buf, g *parityGroup, fresh bool) error {
	p := pp.p
	rs := p.servers[srv]
	if !rs.alive {
		return fmt.Errorf("client: server %s is down", rs.addr)
	}
	if err := p.sendXor(srv, key, data, pp.parityIdx, g.parityKey, true); err != nil {
		if !isConnError(err) {
			g.stale = true
			pp.checkParityServer() // if it died, its crash handler recomputes every group
			if g.stale {
				pp.repairGroup(g)
			}
		}
		return err
	}
	if fresh {
		rs.used++
	}
	return nil
}

func (pp *parityPolicy) pageOut(id page.ID, data page.Buf) error {
	p := pp.p
	// Close the asynchronous-recovery gap first: group bookkeeping
	// mutated before a pending crash rebuild would corrupt parity.
	p.ensureAllRecovered()
	// Overwrite in place; a mid-write crash triggers recovery (which
	// re-homes the page with its pre-crash contents), after which the
	// retry lands the new contents on the new home.
	for attempt := 0; attempt < 3; attempt++ {
		home, ok := pp.homes[id]
		if !ok {
			break
		}
		g := pp.groups[home.slot]
		if !p.servers[home.srv].alive {
			// Crash handler failed to clean this up (e.g. reconstruction
			// error); the version is gone, its contribution still folded
			// into the parity page.
			if g != nil {
				g.stale = true
			}
			pp.dropMemberBookkeeping(id)
			break
		}
		if err := pp.xorWrite(home.srv, home.key, data, g, false); err == nil {
			return nil
		}
	}
	// Disk-fallback page being rewritten?
	if loc := p.table[id]; loc != nil && loc.onDisk {
		if pp.pickDataServer() < 0 {
			return p.diskFallback(id, data)
		}
		p.swap.Delete(uint64(id))
		delete(p.table, id)
	}
	return pp.place(id, data)
}

// pickDataServer selects the most promising data server, with the
// same latency-aware policy as the pager's general selection.
func (pp *parityPolicy) pickDataServer() int {
	return pp.p.pickFrom(pp.dataIdx)
}

// place assigns a fresh home (server, slot, group) and writes the page.
func (pp *parityPolicy) place(id page.ID, data page.Buf) error {
	p := pp.p
	for tries := 0; tries < len(pp.dataIdx)+1; tries++ {
		srv := pp.pickDataServer()
		if srv < 0 {
			break
		}
		slot := pp.slots[srv].alloc()
		g, ok := pp.groups[slot]
		if !ok {
			g = &parityGroup{slot: slot, parityKey: p.allocKey(), members: make(map[int]page.ID)}
			pp.groups[slot] = g
			p.servers[pp.parityIdx].used++
		}
		key := p.allocKey()
		if err := pp.xorWrite(srv, key, data, g, true); err != nil {
			if s, ok := pp.slots[srv]; ok {
				s.release(slot)
			}
			// A transport failure leaves it ambiguous whether the delta
			// reached the parity page; since this member was never
			// registered, recompute the group's parity from its
			// registered members to close the write hole.
			if isConnError(err) {
				if g2, ok := pp.groups[slot]; ok {
					pp.repairGroup(g2)
				}
			}
			continue
		}
		g.members[srv] = id
		pp.homes[id] = parityHome{srv: srv, slot: slot, key: key}
		delete(p.table, id) // clear any stale disk/lost marker
		return nil
	}
	// No data server: local disk fallback.
	return p.diskFallback(id, data)
}

func (pp *parityPolicy) pageIn(id page.ID) (page.Buf, error) {
	p := pp.p
	p.ensureAllRecovered()
	err := ErrNotPagedOut
	if home, ok := pp.homes[id]; ok {
		var data page.Buf
		if data, err = p.fetchPage(home.srv, home.key); err == nil {
			return data, nil
		}
		// Persistent checksum failure: the transfer (or the stored
		// copy) is corrupt but the server is up. Reconstruct through
		// the parity group and rewrite the home copy in place — the
		// reconstruction equals the stored contents, so the group's
		// parity stays consistent.
		if isBadChecksum(err) {
			if g := pp.groups[home.slot]; g != nil {
				if rec, rerr := pp.reconstruct(g, home.srv); rerr == nil {
					p.stats.Recovered++
					if p.servers[home.srv].alive {
						if serr := p.sendPage(home.srv, home.key, rec, false); serr == nil {
							p.stats.Rehomed++
						}
					}
					return rec, nil
				}
			}
		}
		// Home crashed mid-fetch; handleCrash reconstructed and
		// re-homed the page, so retry through the new home.
		if home2, ok := pp.homes[id]; ok && home2 != home {
			return p.fetchPage(home2.srv, home2.key)
		}
	}
	if loc := p.table[id]; loc != nil {
		if loc.onDisk {
			return p.diskGet(id)
		}
		if loc.lost {
			return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
		}
	}
	return nil, err
}

// dropMemberBookkeeping removes id from its group and slot tables
// without any I/O (used after a crash invalidated the home).
func (pp *parityPolicy) dropMemberBookkeeping(id page.ID) {
	home, ok := pp.homes[id]
	if !ok {
		return
	}
	delete(pp.homes, id)
	if g, ok := pp.groups[home.slot]; ok {
		delete(g.members, home.srv)
		if len(g.members) == 0 {
			pp.deleteGroup(g)
		}
	}
	if s, ok := pp.slots[home.srv]; ok {
		s.release(home.slot)
	}
}

// checkParityServer probes the parity server after a forwarding
// failure; if it is unreachable, its crash handling (re-election and
// parity recomputation) runs now instead of on some later direct use.
func (pp *parityPolicy) checkParityServer() {
	p := pp.p
	if pp.parityIdx < 0 || pp.parityIdx >= len(p.servers) {
		return
	}
	rs := p.servers[pp.parityIdx]
	if !rs.alive {
		return
	}
	err := p.withConn(pp.parityIdx, true, func(c *Conn) error {
		_, lerr := c.Load()
		return lerr
	})
	if err != nil && !errors.Is(err, ErrBreakerOpen) {
		p.serverDied(pp.parityIdx, err)
	}
}

// repairGroup recomputes g's parity from its registered members and
// installs it under a fresh key, discarding any ambiguous state left
// by a transport failure mid-XORWRITE.
func (pp *parityPolicy) repairGroup(g *parityGroup) {
	p := pp.p
	if !p.servers[pp.parityIdx].alive {
		return // a parity-server crash handler will rebuild everything
	}
	parityPage := page.GetZero()
	for srv, id := range g.members {
		home, ok := pp.homes[id]
		if !ok || !p.servers[srv].alive {
			page.Put(parityPage)
			return
		}
		data, err := p.fetchPage(srv, home.key)
		if err != nil {
			page.Put(parityPage)
			return
		}
		page.XORInto(parityPage, data)
		page.Put(data)
	}
	oldKey := g.parityKey
	g.parityKey = p.allocKey()
	// The send wrote the frame itself: once it returns, acked or not,
	// nothing references the buffer.
	err := p.sendPage(pp.parityIdx, g.parityKey, parityPage, true)
	page.Put(parityPage)
	if err != nil {
		g.parityKey = oldKey
		return
	}
	g.stale = false
	p.freeSlots(pp.parityIdx, oldKey)
}

// deleteGroup frees the group's parity slot.
func (pp *parityPolicy) deleteGroup(g *parityGroup) {
	delete(pp.groups, g.slot)
	pp.p.freeSlots(pp.parityIdx, g.parityKey)
}

// free releases the page: its contribution is XORed out of the group
// parity (by writing zeros, whose delta is the old contents), then
// the slot is freed. A member dropped with its contribution still in
// the parity — dead home, failed zero-write — leaves the group stale
// until the parity is recomputed from the members that remain.
func (pp *parityPolicy) free(id page.ID) error {
	p := pp.p
	p.ensureAllRecovered()
	home, ok := pp.homes[id]
	if !ok {
		if loc := p.table[id]; loc != nil {
			p.swap.Delete(uint64(id))
			delete(p.table, id)
		}
		return nil
	}
	g := pp.groups[home.slot]
	xoredOut := false
	if p.servers[home.srv].alive {
		zero := page.GetZero()
		err := pp.xorWrite(home.srv, home.key, zero, g, false)
		page.Put(zero) // the write has returned: nothing references it
		if err == nil {
			p.freeSlots(home.srv, home.key)
			xoredOut = true
		} else if now, ok := pp.homes[id]; !ok || now != home {
			// The home died under the write and its crash handler re-homed
			// the page (or lost it): free it where it is now.
			return pp.free(id)
		}
	}
	pp.dropMemberBookkeeping(id)
	if !xoredOut && g != nil && pp.groups[home.slot] == g {
		g.stale = true
		pp.repairGroup(g)
	}
	return nil
}

// serverJoined folds a joined (or revived) server into the layout.
// If the layout is degraded — parity doubled up on a data server, or
// no live parity host at all — parity duty migrates onto the joiner,
// restoring single-failure tolerance for every group. Otherwise the
// joiner simply becomes another data server.
func (pp *parityPolicy) serverJoined(srv int) {
	p := pp.p
	if !p.servers[srv].alive || srv == pp.parityIdx || pp.isData(srv) {
		return // already in the layout (revival after evacuation)
	}
	if pp.parityIdx < 0 || !p.servers[pp.parityIdx].alive || pp.isData(pp.parityIdx) {
		oldIdx := pp.parityIdx
		oldKeys := make([]uint64, 0, len(pp.groups))
		for _, g := range pp.groups {
			oldKeys = append(oldKeys, g.parityKey)
		}
		pp.parityIdx = srv
		if err := pp.recomputeAndShipParity(false); err != nil {
			p.logf("parity migration to joined server %s: %v", p.servers[srv].addr, err)
			return
		}
		if oldIdx >= 0 && oldIdx < len(p.servers) {
			p.freeSlots(oldIdx, oldKeys...)
		}
		p.logf("parity duty moved to joined server %s", p.servers[srv].addr)
		return
	}
	pp.dataIdx = append(pp.dataIdx, srv)
	if pp.slots[srv] == nil {
		pp.slots[srv] = &srvSlots{}
	}
}

// isData reports whether srv is one of the layout's data servers.
func (pp *parityPolicy) isData(srv int) bool {
	for _, i := range pp.dataIdx {
		if i == srv {
			return true
		}
	}
	return false
}

// removeDataServer takes srv out of the layout: the data set, its slot
// allocator, and every group's membership.
func (pp *parityPolicy) removeDataServer(srv int) {
	kept := pp.dataIdx[:0]
	for _, i := range pp.dataIdx {
		if i != srv {
			kept = append(kept, i)
		}
	}
	pp.dataIdx = kept
	delete(pp.slots, srv)
	for _, g := range pp.groups {
		delete(g.members, srv)
	}
}

// recomputeAndShipParity recomputes every group's parity page from
// the live member data and ships the whole set to the parity server
// in ONE pipelined batch (sendPageBatch) instead of one round trip
// per group — the rebuild of an N-group layout costs roughly one
// parity-server round trip total. A member read that
// fails leaves that group's parity computed from the readable members
// and is reported as the first error; when recovered is set each
// group counts toward Stats.Recovered.
//
//rmpvet:holds Pager.mu
func (pp *parityPolicy) recomputeAndShipParity(recovered bool) error {
	p := pp.p
	var firstErr error
	keys := make([]uint64, 0, len(pp.groups))
	pages := make([]page.Buf, 0, len(pp.groups))
	shipped := make([]*parityGroup, 0, len(pp.groups))
	for _, g := range pp.groups {
		parityPage := page.GetZero()
		complete := true
		for srv, id := range g.members {
			home := pp.homes[id]
			data, err := p.fetchPage(srv, home.key)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				complete = false
				continue
			}
			page.XORInto(parityPage, data)
			page.Put(data)
		}
		// A parity page missing a registered member's contribution must
		// never serve reconstructions: it would fabricate bytes with no
		// checksum to catch them.
		g.stale = !complete
		g.parityKey = p.allocKey()
		keys = append(keys, g.parityKey)
		pages = append(pages, parityPage)
		shipped = append(shipped, g)
		if recovered {
			p.stats.Recovered++
		}
	}
	err := p.sendPageBatch(pp.parityIdx, keys, pages, true)
	if err == nil {
		for _, b := range pages {
			page.Put(b)
		}
	}
	if err != nil {
		for _, g := range shipped {
			g.stale = true
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// redundancy: a page survives one more crash iff its home is alive,
// its group's parity lives on a distinct live server, and every other
// member of the group is reachable for reconstruction.
func (pp *parityPolicy) redundancy() Redundancy {
	p := pp.p
	var r Redundancy
	parityOK := pp.parityIdx >= 0 && pp.parityIdx < len(p.servers) &&
		p.servers[pp.parityIdx].alive
	for _, home := range pp.homes {
		if !p.servers[home.srv].alive {
			// Awaiting reconstruction: still recoverable via parity,
			// but another crash could finish it off.
			r.Degraded++
			continue
		}
		full := parityOK && pp.parityIdx != home.srv
		if full {
			if g := pp.groups[home.slot]; g != nil {
				for msrv := range g.members {
					if !p.servers[msrv].alive {
						full = false
						break
					}
				}
			}
		}
		if full {
			r.Full++
		} else {
			r.Degraded++
		}
	}
	for _, loc := range p.table {
		switch {
		case loc.lost:
			r.Lost++
		case loc.onDisk:
			r.Full++
		}
	}
	return r
}

// handleCrash reconstructs the dead server's pages via the parity
// groups (or rebuilds the parity server's contents if it was the
// parity server that died).
//
// If the dead server was hosting parity *and* data (the degraded
// double-up after an earlier failure), its data pages cannot be
// reconstructed — their parity died with them. They are marked lost
// and the remaining groups get fresh parity.
func (pp *parityPolicy) handleCrash(srv int) error {
	if srv == pp.parityIdx {
		pp.dropDataServerLost(srv)
		return pp.rebuildParity(-1, true)
	}
	if !pp.isData(srv) {
		return nil
	}
	p := pp.p

	// Collect this server's members before mutating bookkeeping.
	type lost struct {
		id   page.ID
		g    *parityGroup
		home parityHome
	}
	var losses []lost
	for id, home := range pp.homes {
		if home.srv == srv {
			losses = append(losses, lost{id: id, g: pp.groups[home.slot], home: home})
		}
	}
	var firstErr error
	for _, l := range losses {
		data, err := pp.reconstruct(l.g, srv)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("reconstruct %v: %w", l.id, err)
			}
			// The member is dropped with its contribution still folded
			// into the parity page: the group must not serve further
			// reconstructions until its parity is recomputed.
			l.g.stale = true
			delete(pp.homes, l.id)
			delete(l.g.members, srv)
			if len(l.g.members) == 0 {
				pp.deleteGroup(l.g)
			}
			p.entry(l.id).lost = true
			p.stats.LostPages++
			continue
		}
		// Subtract the lost page from its group's parity, then drop it
		// from the group and re-home it as a fresh pageout.
		if err := pp.xorOutOfParity(l.g, data); err != nil {
			// Ambiguous whether the delta landed; the parity can no
			// longer be trusted against its members.
			l.g.stale = true
			if firstErr == nil {
				firstErr = err
			}
		}
		delete(pp.homes, l.id)
		delete(l.g.members, srv)
		if len(l.g.members) == 0 {
			pp.deleteGroup(l.g)
		}
		if err := pp.place(l.id, data); err != nil && firstErr == nil {
			firstErr = err
		}
		p.stats.Recovered++
	}
	// The dead server leaves the layout — also from groups that may
	// still list it for pages we never saw (shouldn't happen, but keep
	// the invariant tight).
	pp.removeDataServer(srv)
	pp.freshenStaleGroups()
	return firstErr
}

// freshenStaleGroups recomputes parity for every stale group whose
// members are all reachable again, restoring their reconstruction
// capability. Groups with a member on a still-dead server stay stale
// — reconstruct keeps refusing them — until a later crash handler
// removes or re-homes that member.
func (pp *parityPolicy) freshenStaleGroups() {
	for _, g := range pp.groups {
		if g.stale {
			pp.repairGroup(g)
		}
	}
}

// dropDataServerLost removes srv from the data set, marking every
// page homed there as lost (no reconstruction possible — used when
// the same host held the parity).
func (pp *parityPolicy) dropDataServerLost(srv int) {
	p := pp.p
	if !pp.isData(srv) {
		return
	}
	var doomed []page.ID
	for id, home := range pp.homes {
		if home.srv == srv {
			doomed = append(doomed, id)
		}
	}
	for _, id := range doomed {
		pp.dropMemberBookkeeping(id)
		p.entry(id).lost = true
		p.stats.LostPages++
	}
	pp.removeDataServer(srv)
}

// reconstruct XORs the group's parity page with its surviving members
// to recover the member stored on dead.
func (pp *parityPolicy) reconstruct(g *parityGroup, dead int) (page.Buf, error) {
	p := pp.p
	if g.stale {
		return nil, fmt.Errorf("client: parity group %d is stale after an unrecovered loss", g.slot)
	}
	out, err := p.fetchPage(pp.parityIdx, g.parityKey)
	if err != nil {
		return nil, err
	}
	for srv, id := range g.members {
		if srv == dead {
			continue
		}
		home := pp.homes[id]
		data, err := p.fetchPage(srv, home.key)
		if err != nil {
			return nil, err
		}
		page.XORInto(out, data)
		page.Put(data)
	}
	return out, nil
}

// xorOutOfParity removes data's contribution from g's parity page.
func (pp *parityPolicy) xorOutOfParity(g *parityGroup, data page.Buf) error {
	p := pp.p
	rs := p.servers[pp.parityIdx]
	if !rs.alive {
		return fmt.Errorf("client: parity server %s is down", rs.addr)
	}
	// XORDELTA is NOT idempotent — a replay whose first attempt landed
	// would fold the delta in twice and corrupt the parity — so it gets
	// exactly one bounded attempt (withConn never replays it).
	if err := p.withConn(pp.parityIdx, false, func(c *Conn) error {
		return c.XorDelta(g.parityKey, data)
	}); err != nil {
		if isConnError(err) {
			p.serverDied(pp.parityIdx, err)
		}
		return err
	}
	p.stats.NetTransfers++
	return nil
}

// rebuildParity elects a new parity server — never excluded (-1 bars
// nobody) — and recomputes every group's parity from its members. Data
// pages are untouched. recovered says the old parity died, so each
// group counts toward Stats.Recovered.
func (pp *parityPolicy) rebuildParity(excluded int, recovered bool) error {
	p := pp.p
	// Prefer an alive server that holds no data; otherwise double up
	// on the data server with the most headroom (degraded but live:
	// groups with a member there lose single-failure tolerance).
	newIdx := -1
	for _, i := range p.aliveServers() {
		if i != excluded && !pp.isData(i) {
			newIdx = i
			break
		}
	}
	if newIdx < 0 {
		bestRoom := -1
		for _, i := range pp.dataIdx {
			if rs := p.servers[i]; i != excluded && rs.alive && rs.headroom() > bestRoom {
				newIdx, bestRoom = i, rs.headroom()
			}
		}
		if newIdx < 0 {
			return fmt.Errorf("client: no server left to host parity")
		}
		p.logf("parity server doubling up on data server %s (degraded)", p.servers[newIdx].addr)
	}
	pp.parityIdx = newIdx
	return pp.recomputeAndShipParity(recovered)
}

// evacuate migrates pages (or parity pages) off a pressured or
// draining server. A doubled-up server (parity on a data server after
// an earlier failure) holds both roles, so the parity branch falls
// through to the data branch rather than returning.
func (pp *parityPolicy) evacuate(srv int) error {
	p := pp.p
	if srv == pp.parityIdx {
		// Move parity duty: re-elect and recompute. Mark the evacuated
		// server so rebuildParity skips it, then free its parity pages.
		oldKeys := make([]uint64, 0, len(pp.groups))
		for _, g := range pp.groups {
			oldKeys = append(oldKeys, g.parityKey)
		}
		oldIdx := pp.parityIdx
		pp.parityIdx = -1 // not a data server either; rebuild re-elects
		if err := pp.rebuildParity(oldIdx, false); err != nil {
			pp.parityIdx = oldIdx
			return err
		}
		p.freeSlots(oldIdx, oldKeys...)
		// pressured stays set until the data branch finishes, so the
		// re-homing below cannot pick this server again.
	}
	// Data server: re-home each of its pages.
	var ids []page.ID
	for id, home := range pp.homes {
		if home.srv == srv {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		home := pp.homes[id]
		g := pp.groups[home.slot]
		data, err := p.fetchPage(srv, home.key)
		if err != nil {
			return err
		}
		if err := pp.xorOutOfParity(g, data); err != nil {
			return err
		}
		p.freeSlots(srv, home.key)
		pp.dropMemberBookkeeping(id)
		if err := pp.place(id, data); err != nil {
			return err
		}
		p.stats.Migrated++
	}
	p.servers[srv].pressured = false
	return nil
}
