package client

import (
	"errors"
	"fmt"
	"sort"

	"rmp/internal/page"
	"rmp/internal/parity"
	"rmp/internal/rs"
)

// logPolicy is the log-structured stripe engine behind two of the
// pager's policies. Pageouts are appended round-robin into groups of k
// data pages spread over k servers while the client folds them into m
// running parity buffers; every k pageouts the buffers are shipped to
// m further servers and the group is sealed. Cost: (k+m)/k transfers
// and memory per pageout, amortized, and any m simultaneous server
// crashes are survivable — every page decodes from any k of its
// group's k+m shards. Superseded page versions are only marked
// inactive, so servers need overflow memory, and the log may hold no
// more versions than the overflow budget allows.
//
// At the budget an overwrite either appends as ever and the cleaner
// rewrites the live pages of the emptiest groups to win the slot back,
// or — single-parity layouts only — it patches the page's sealed slot in
// place: one XORWRITE, the home server forwarding old XOR new to the
// group's parity shard. A patch costs a constant 2 transfers, stores no
// new version and strands nothing; cleaning a group with a of its k
// members live costs a fetch and a re-append for each to win k-a slots.
// The engine computes which is cheaper from the log's census of sealed
// groups (patchTarget); nothing is configured. Fresh pages and
// overwrites with headroom append at (k+m)/k. With m >= 2 a patch would
// need a GF multiply on the home server and an m-way forward, so those
// layouts keep cleaning.
//
// The two policies are two shapes of it:
//
//   - PARITY_LOGGING, the paper's contribution (§2.2): every server
//     alive at start but one is a data column and the last holds a
//     single parity that is the plain XOR — 1 + 1/S transfers.
//   - RS(k,m): Config.RSDataShards data columns and RSParityShards
//     Reed-Solomon parity columns.
//
// All group bookkeeping lives in parity.Log; this type binds the log's
// abstract columns to actual servers and performs the I/O.
//
// Degraded mode: when fewer than k+m servers are usable the layout is
// re-planned with reduced parity width first (tolerance is cheapest to
// give up temporarily), then a narrowed stripe; writes are counted
// (Stats.DegradedWrites) but never denied, and a server joining while
// the layout is narrower than the shape re-plans at once. Below 2
// usable servers pageouts fall back to the local disk.
//
// Crash handling uses a snapshot-and-rebuild strategy: collect the
// contents of every live page into client memory (decoding those on
// dead or unreadable shards from their groups), then replay them into
// a fresh log over the surviving servers, shipping each server's new
// shards in one pipelined batch. The paper accepts recovery being "a
// few more seconds" — simplicity and correctness win here.
//
//rmpvet:holds Pager.mu
type logPolicy struct {
	p *Pager

	// k, m is the full-strength shape; the current layout (the log's
	// own shape) may be narrower while servers are down.
	k, m int

	log *parity.Log
	// cols[c] is the server holding log column c: the log's K data
	// columns, then its M parity columns. Empty means no usable layout
	// (disk-only mode).
	cols []int

	// overflowBudget mirrors the paper's 10% server overflow: GC runs
	// when stored versions exceed live pages by more than this factor.
	overflowBudget float64

	// inflight is the pageout currently being transferred; crash
	// rebuilds read its contents from memory instead of the network.
	inflight struct {
		valid bool
		id    page.ID
		data  page.Buf
	}

	rebuilding bool
	retry      bool
}

// maxRedispatch bounds how many times a pageout is re-dispatched
// through a rebuilt layout after a mid-transfer failure. A connection
// can keep failing without its server ever being declared dead (e.g.
// repeated timeouts on a flapping link), so the re-dispatch must not
// loop unboundedly; past the bound the page goes to the local disk.
const maxRedispatch = 3

// newLogPolicy builds the engine at shape (k, m) over the servers
// alive now (at least two).
func newLogPolicy(p *Pager, k, m int) (*logPolicy, error) {
	if k+m > rs.MaxShards {
		return nil, fmt.Errorf("client: %v shape (%d,%d) exceeds %d total shards", p.cfg.Policy, k, m, rs.MaxShards)
	}
	budget := p.cfg.OverflowBudget
	if budget <= 0 {
		budget = 0.10 // the paper's experiments devote 10% (§2.2)
	}
	pl := &logPolicy{p: p, k: k, m: m, overflowBudget: budget}
	usable := p.aliveServers()
	var err error
	if pl.log, err = pl.newLog(len(usable)); err != nil {
		return nil, err
	}
	pl.cols = usable[:pl.log.K()+pl.log.M()]
	return pl, nil
}

// newLog makes an empty log at the shape degraded to fit n >= 2 usable
// servers: the parity width shrinks first, then the stripe narrows.
func (pl *logPolicy) newLog(n int) (*parity.Log, error) {
	m := pl.m
	if n < pl.k+m {
		m = n - pl.k
	}
	if m < 1 {
		m = 1
	}
	k := pl.k
	if n-m < k {
		k = n - m
	}
	l, err := parity.NewShapedLog(k, m)
	if err != nil {
		return nil, err
	}
	l.SetKeySource(pl.p.allocKey)
	return l, nil
}

// degraded reports whether the current layout is weaker than the
// shape (fewer parity columns or a narrower stripe).
func (pl *logPolicy) degraded() bool {
	return len(pl.cols) == 0 || pl.log.K() < pl.k || pl.log.M() < pl.m
}

// deadColumns lists the log columns whose server is down.
func (pl *logPolicy) deadColumns() []int {
	var dead []int
	for col, srv := range pl.cols {
		if !pl.p.servers[srv].alive {
			dead = append(dead, col)
		}
	}
	return dead
}

// layoutAlive reports whether the current layout can accept pageouts.
func (pl *logPolicy) layoutAlive() bool {
	return len(pl.cols) > 0 && len(pl.deadColumns()) == 0
}

// tolerance: a full group survives as many simultaneous crashes as the
// layout has parity columns; that is what remains while degraded.
func (pl *logPolicy) tolerance() int {
	if len(pl.cols) == 0 {
		return 0
	}
	return pl.log.M()
}

// freeSlots releases log slots of the layout cols on whichever of its
// servers still live (dead servers' memory is gone with them), one
// FREE per column: a layout's columns are distinct servers.
func (pl *logPolicy) freeSlots(cols []int, slots []parity.ColumnKey) {
	var keys []uint64
	for col, srv := range cols {
		keys = keys[:0]
		for _, s := range slots {
			if s.Column == col {
				keys = append(keys, s.Key)
			}
		}
		pl.p.freeSlots(srv, keys...) // no-op for a dead server or no keys
	}
}

func (pl *logPolicy) freeReclaims(cols []int, recs []parity.Reclaim) {
	for _, r := range recs {
		pl.freeSlots(cols, r.Slots)
	}
}

func (pl *logPolicy) pageOut(id page.ID, data page.Buf) error {
	p := pl.p
	var lastErr error
	for attempt := 0; attempt <= maxRedispatch; attempt++ {
		// Close the asynchronous-recovery gap before touching the log:
		// appending through a layout with a dead column corrupts groups.
		p.ensureAllRecovered()

		if !pl.layoutAlive() {
			return p.diskFallback(id, data)
		}
		// The log takes the page over from a disk-fallback copy, or from
		// the record of an earlier loss.
		if loc := p.table[id]; loc != nil {
			if loc.onDisk {
				p.swap.Delete(uint64(id))
			}
			delete(p.table, id)
		}

		// On failure a server died mid-transfer and the rebuild already
		// ran (using the in-memory inflight copy); the next iteration
		// re-dispatches through the new layout.
		if t, ok := pl.patchTarget(id); ok {
			lastErr = pl.patch(id, data, t)
		} else {
			lastErr = pl.appendAndSend(id, data)
		}
		if lastErr == nil {
			if pl.degraded() {
				// Write accepted at reduced tolerance or width — counted,
				// never denied; the next join re-plans back to the shape.
				p.stats.DegradedWrites++
			}
			pl.maybeGC()
			return nil
		}
	}
	// Every layout we were handed failed mid-transfer; keep the page
	// safe on the local disk instead — and out of the log, whose slot for
	// it may never have been stored: the disk copy must win in pageIn.
	pl.freeReclaims(pl.cols, pl.log.Free(id))
	if err := p.diskFallback(id, data); err != nil {
		return lastErr
	}
	return nil
}

// patchTarget decides whether the pageout of id overwrites its live
// version in place, and where. It does when all of these hold: one more
// stored version would exceed the overflow budget; the log can patch the
// page at all (parity.Log.PatchTarget); other members of its group are
// still active — the append of a group's last active member reclaims
// the whole group for nothing; and cleaning is not the cheaper way to
// make room. Cleaning the emptiest victim, a of k members active, moves
// a·(1 + (k+m)/k) pages to win k-a slots; a patch costs m·(1 - 1/k)
// transfers more than the append a free slot would have allowed. At the
// paper's 4+1 that admits only one-survivor victims, which GAUSS's row
// sweeps leave behind in numbers and uniform overwrites almost never.
func (pl *logPolicy) patchTarget(id page.ID) (parity.PatchTarget, bool) {
	if stored, _ := pl.log.VersionsStored(); stored+1 <= pl.budget() {
		return parity.PatchTarget{}, false
	}
	t, ok := pl.log.PatchTarget(id)
	if !ok || t.Active == 1 {
		return parity.PatchTarget{}, false
	}
	if a, ok := pl.log.EmptiestVictim(); ok {
		k, m := float64(pl.log.K()), float64(pl.log.M())
		if float64(a)*(1+(k+m)/k)/(k-float64(a)) <= m*(1-1/k) {
			return parity.PatchTarget{}, false
		}
	}
	return t, true
}

// patch overwrites the live version of id in place. The group's parity
// is in doubt from the moment the XORWRITE leaves until its ack: the
// home server may have stored the page without the delta reaching the
// parity shard, or the other way round for all the client can tell, and
// a replay would forward new XOR new — nothing — so the write gets one
// attempt. A failure therefore ends in a rebuild that reads this page
// from inflight and every other member of the group from its own slot,
// never through the parity: the crash rebuild if the home server died
// (run here, while inflight is valid, if a membership layer queued it),
// a re-plan like a refused shard's for a status or an ack that is merely
// late. The caller re-dispatches afterwards.
func (pl *logPolicy) patch(id page.ID, data page.Buf, t parity.PatchTarget) error {
	p := pl.p
	pl.inflight.valid = true
	pl.inflight.id = id
	pl.inflight.data = data
	defer func() { pl.inflight.valid = false }()

	log := pl.log
	log.BeginPatch(t)
	err := p.sendXor(pl.cols[t.Slot.Column], t.Slot.Key, data, pl.cols[t.Parity.Column], t.Parity.Key, false)
	if err == nil {
		log.EndPatch(t)
		p.stats.Patches++
		return nil
	}
	p.ensureAllRecovered()
	if pl.log == log {
		if rerr := pl.rebuild(nil); rerr != nil {
			p.logf("%v: re-plan after a failed patch: %v", p.cfg.Policy, rerr)
		}
	}
	return err
}

// appendAndSend runs one pageout through the log: place the data,
// ship it (and the parity shards, if the group completed), free
// reclaimed slots. Any transport failure triggers the crash rebuild
// (via serverDied), and a shard refused with a status the same rebuild
// from here; the caller re-dispatches afterwards.
func (pl *logPolicy) appendAndSend(id page.ID, data page.Buf) error {
	pl.inflight.valid = true
	pl.inflight.id = id
	pl.inflight.data = data
	defer func() { pl.inflight.valid = false }()

	place, sealed, recs, err := pl.log.Append(id, data)
	if err != nil {
		return err
	}
	// A failed send rebuilds into a new layout before it returns; the
	// reclaimed groups are already out of the log, so they are freed
	// here either way, on the layout they belong to.
	cols := pl.cols
	err = pl.send(cols, place, sealed, data)
	pl.freeReclaims(cols, recs)
	if err != nil && !isConnError(err) {
		// A server answered a shard with a status (out of space, say)
		// instead of storing it, and the log now names a slot that nobody
		// holds. Left there it is a phantom member: its group has one
		// shard of tolerance less than the census believes. Replay into a
		// fresh log — inflight supplies this page, and writeback plans
		// around whoever refuses again.
		if rerr := pl.rebuild(nil); rerr != nil {
			pl.p.logf("%v: re-plan after a refused shard: %v", pl.p.cfg.Policy, rerr)
		}
	}
	return err
}

// send ships one placed page, together with the parity shards if its
// group sealed — concurrently, so a seal costs one round trip instead
// of 1+m serial ones.
func (pl *logPolicy) send(cols []int, place parity.Placement, sealed *parity.SealedParity, data page.Buf) error {
	p := pl.p
	if sealed == nil {
		return p.sendPage(cols[place.Column], place.Key, data, true)
	}
	reqs := make([]sendReq, 1, 1+len(sealed.Slots))
	reqs[0] = sendReq{srv: cols[place.Column], key: place.Key, data: data, fresh: true}
	for j, s := range sealed.Slots {
		reqs = append(reqs, sendReq{srv: cols[s.Column], key: s.Key, data: sealed.Data[j], fresh: true})
	}
	var firstErr error
	for i, err := range p.sendPages(reqs) {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else if i > 0 {
			page.Put(reqs[i].data) // a parity buffer the log handed over
		}
	}
	return firstErr
}

func (pl *logPolicy) pageIn(id page.ID) (page.Buf, error) {
	p := pl.p
	for attempt := 0; attempt < 2; attempt++ {
		p.ensureAllRecovered()
		if ck, ok := pl.log.Lookup(id); ok {
			data, err := p.fetchPage(pl.cols[ck.Column], ck.Key)
			if err == nil {
				return data, nil
			}
			if !isConnError(err) {
				// Persistent checksum failure with the server up: decode
				// this one page from the rest of its group and repair the
				// stored copy in place.
				if isBadChecksum(err) {
					rec, rerr := pl.repair(id, ck)
					if rerr == nil {
						return rec, nil
					}
					if !errors.Is(rerr, parity.ErrUnrecoverable) {
						continue // a server died under the repair; as below
					}
				}
				return nil, err
			}
			continue // crash rebuild ran; retry through the new layout
		}
		if loc := p.table[id]; loc != nil && loc.onDisk {
			return p.diskGet(id)
		}
		if loc := p.table[id]; loc != nil && loc.lost {
			return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
		}
		return nil, ErrNotPagedOut
	}
	return nil, fmt.Errorf("client: pagein %v failed after crash recovery", id)
}

// repair rebuilds the page stored at ck, whose read persistently fails
// checksum verification, from its group (the open group's client-side
// buffers included), then rewrites the home slot in place. The
// reconstruction equals the stored contents, so sealed parity stays
// valid. The error is decode's.
func (pl *logPolicy) repair(id page.ID, ck parity.ColumnKey) (page.Buf, error) {
	p := pl.p
	srv := pl.cols[ck.Column]
	rec, err := pl.decode(id, pl.deadColumns(), nil)
	if err != nil {
		return nil, err
	}
	p.stats.Recovered++
	if p.servers[srv].alive {
		if serr := p.sendPage(srv, ck.Key, rec, false); serr == nil {
			p.stats.Rehomed++
		}
	}
	return rec, nil
}

// decode reconstructs the live version of id from its group without
// its own shard or any column in erased. A survivor that turns out
// unreadable (anything but a transport failure) is erased too and the
// plan redrawn, until parity.ErrUnrecoverable says too few shards are
// left. have, when non-nil, serves and collects the shards fetched, by
// storage key. A transport error is returned at once: the rebuild it
// triggered may have replaced the log.
func (pl *logPolicy) decode(id page.ID, erased []int, have map[uint64]page.Buf) (page.Buf, error) {
	erased = erased[:len(erased):len(erased)] // appends must not reach the caller's slice
plan:
	for {
		lp, err := pl.log.PlanPage(id, erased...)
		if err != nil {
			return nil, err
		}
		pages := make([]page.Buf, len(lp.Survivors))
		for i, s := range lp.Survivors {
			data, ok := have[s.Key]
			if !ok {
				if data, err = pl.p.fetchPage(pl.cols[s.Column], s.Key); err != nil {
					if isConnError(err) {
						return nil, err
					}
					erased = append(erased, s.Column)
					continue plan
				}
				if have != nil {
					have[s.Key] = data
				}
			}
			pages[i] = data
		}
		return pl.log.Reconstruct(lp, pages)
	}
}

func (pl *logPolicy) free(id page.ID) error {
	p := pl.p
	p.ensureAllRecovered()
	if loc := p.table[id]; loc != nil {
		p.swap.Delete(uint64(id))
		delete(p.table, id)
	}
	pl.freeReclaims(pl.cols, pl.log.Free(id))
	return nil
}

// --- overflow garbage collection ----------------------------------------

// budget is how many data versions, active and superseded, the log may
// hold: the live pages plus the overflow fraction, plus the open group.
func (pl *logPolicy) budget() int {
	return int(float64(pl.log.Live())*(1+pl.overflowBudget)) + pl.log.K()
}

// maybeGC rewrites live pages of fragmented groups when inactive
// versions exceed the overflow budget (paper: servers devote 10% more
// memory; "in this case, one has to perform garbage collection").
func (pl *logPolicy) maybeGC() {
	stored, _ := pl.log.VersionsStored()
	excess := stored - pl.budget()
	if excess <= 0 {
		return
	}
	p := pl.p
	p.stats.GCPasses++
	for _, id := range pl.log.GCCandidates(excess) {
		ck, ok := pl.log.Lookup(id)
		if !ok {
			continue
		}
		data, err := p.fetchPage(pl.cols[ck.Column], ck.Key)
		if err != nil {
			return // crash rebuild ran; GC will retrigger later
		}
		if err := pl.appendAndSend(id, data); err != nil {
			return
		}
	}
}

// serverJoined: while the layout is at its shape a joiner is left out
// until the next rebuild (crash, evacuation, or drain) re-plans over
// the alive servers — the log's column layout is fixed in between, and
// new capacity still helps at once through disk-page promotion. While
// the layout is narrower than its shape the joiner may restore width
// or tolerance the cluster is missing, so the re-plan runs now.
func (pl *logPolicy) serverJoined(int) {
	if pl.rebuilding || !pl.degraded() || len(pl.p.aliveServers()) < 2 {
		return
	}
	if err := pl.rebuild(nil); err != nil {
		pl.p.logf("%v: re-protection after join: %v", pl.p.cfg.Policy, err)
	}
}

// redundancy: the log's census of its live pages against the columns
// that are down, plus the pages the log no longer holds.
func (pl *logPolicy) redundancy() Redundancy {
	var r Redundancy
	r.Full, r.Degraded, r.Lost = pl.log.Census(pl.deadColumns()...)
	for _, loc := range pl.p.table {
		switch {
		case loc.lost:
			r.Lost++
		case loc.onDisk:
			r.Full++
		}
	}
	return r
}

// --- crash recovery and migration ----------------------------------------

func (pl *logPolicy) handleCrash(int) error {
	if pl.rebuilding {
		pl.retry = true
		return nil
	}
	return pl.rebuild(nil)
}

func (pl *logPolicy) evacuate(srv int) error {
	if pl.rebuilding {
		return nil
	}
	err := pl.rebuild(map[int]bool{srv: true})
	if err == nil {
		pl.p.servers[srv].pressured = false
	}
	return err
}

// rebuild snapshots every live page and replays it into a fresh log
// over the alive servers not in exclude. It loops until a full replay
// completes without another server dying or refusing its shards.
func (pl *logPolicy) rebuild(exclude map[int]bool) error {
	pl.rebuilding = true
	defer func() { pl.rebuilding = false }()
	if exclude == nil {
		exclude = make(map[int]bool) // writeback adds the servers that refuse their shards
	}

	for attempt := 0; attempt <= len(pl.p.servers)+1; attempt++ {
		pl.retry = false
		contents, ok := pl.snapshot()
		if !ok || pl.retry {
			continue // a server died during the snapshot; re-plan
		}
		if pl.writeback(contents, exclude) && !pl.retry {
			return nil
		}
	}
	return fmt.Errorf("client: %v rebuild did not converge", pl.p.cfg.Policy)
}

// snapshot collects the contents of every live page: from the
// inflight buffer, from its own shard, or — when that sits on a dead
// server or will not read — by decoding it from its group, each shard
// fetched at most once. Pages whose group has fewer than k shards left
// (more columns gone than it has parity) are marked lost. ok=false
// means a server died mid-snapshot and the caller must re-plan.
func (pl *logPolicy) snapshot() (map[page.ID]page.Buf, bool) {
	p := pl.p
	contents := make(map[page.ID]page.Buf)
	dead := pl.deadColumns()
	have := make(map[uint64]page.Buf)
	if pl.inflight.valid {
		// The pageout in flight is served from memory, to itself and to
		// the members of its group that need it as a survivor: its shard
		// may not have landed.
		if ck, ok := pl.log.Lookup(pl.inflight.id); ok {
			have[ck.Key] = pl.inflight.data
		}
	}

	for _, id := range pl.log.Pages() {
		ck, _ := pl.log.Lookup(id)
		data, ok := have[ck.Key]
		if !ok && p.servers[pl.cols[ck.Column]].alive {
			var err error
			if data, err = p.fetchPage(pl.cols[ck.Column], ck.Key); err == nil {
				have[ck.Key], ok = data, true
			} else if isConnError(err) {
				return nil, false // another death; re-plan
			}
			// Otherwise an unreadable shard on a live server: decode it.
		}
		if !ok {
			var err error
			if data, err = pl.decode(id, dead, have); err != nil {
				if !errors.Is(err, parity.ErrUnrecoverable) {
					return nil, false // a transport failure; re-plan
				}
				p.stats.LostPages++
				p.entry(id).lost = true
				continue
			}
			p.stats.Recovered++
		}
		contents[id] = data
	}
	return contents, true
}

// writeback replays contents into a fresh log over the usable servers,
// planning the whole new layout client-side first and then shipping
// every server's shards in one pipelined batch — about one round trip
// per server instead of one per page — then frees every slot of the
// old layout. Returns false if a server died mid-replay or refused its
// batch — the latter joins exclude — and the caller loops.
func (pl *logPolicy) writeback(contents map[page.ID]page.Buf, exclude map[int]bool) bool {
	p := pl.p
	oldSlots, oldCols := pl.log.AllSlots(), pl.cols

	var usable []int
	for _, i := range p.aliveServers() {
		if !exclude[i] {
			usable = append(usable, i)
		}
	}

	if len(usable) < 2 {
		// Not enough servers for data + parity: everything goes to the
		// local disk; reliability is preserved by the disk itself.
		for id, data := range contents {
			if err := p.diskFallback(id, data); err != nil {
				p.logf("rebuild: disk fallback for %v: %v", id, err)
			}
		}
		newLog, err := pl.newLog(2) // an empty stand-in; no columns marks disk-only mode
		if err != nil {
			return false
		}
		pl.log, pl.cols = newLog, nil
		pl.freeSlots(oldCols, oldSlots)
		return true
	}

	newLog, err := pl.newLog(len(usable))
	if err != nil {
		return false
	}
	cols := usable[:newLog.K()+newLog.M()]

	// Deterministic replay order keeps rebuilds reproducible.
	ids := make([]page.ID, 0, len(contents))
	for id := range contents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	batchKeys := make(map[int][]uint64)
	batchPages := make(map[int][]page.Buf)
	add := func(s parity.ColumnKey, data page.Buf) {
		batchKeys[cols[s.Column]] = append(batchKeys[cols[s.Column]], s.Key)
		batchPages[cols[s.Column]] = append(batchPages[cols[s.Column]], data)
	}
	for _, id := range ids {
		place, sealed, _, err := newLog.Append(id, contents[id])
		if err != nil {
			return false
		}
		add(parity.ColumnKey{Column: place.Column, Key: place.Key}, contents[id])
		if sealed != nil {
			for j, s := range sealed.Slots {
				add(s, sealed.Data[j])
			}
		}
	}
	for srv, keys := range batchKeys {
		if err := p.sendPageBatch(srv, keys, batchPages[srv], true); err != nil {
			// Another server failed under us (serverDied set retry via
			// the handleCrash guard) or answered with a status instead of
			// storing its shards (the next attempt plans around it): free
			// whatever this attempt wrote before the caller retries with
			// yet another fresh layout.
			if !isConnError(err) {
				exclude[srv] = true
			}
			pl.freeSlots(cols, newLog.AllSlots())
			return false
		}
	}
	p.stats.Rehomed += uint64(len(contents))

	pl.log, pl.cols = newLog, cols
	pl.freeSlots(oldCols, oldSlots)
	return true
}
