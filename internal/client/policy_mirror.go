package client

import (
	"fmt"

	"rmp/internal/page"
)

// mirrorPolicy keeps two copies of every page on two different
// servers (paper §2.2 MIRRORING). Crash recovery is near-free — the
// mirror copy is read directly — at the price of two transfers per
// pageout and double memory use.
//
//rmpvet:holds Pager.mu
type mirrorPolicy struct {
	p *Pager
}

func (m *mirrorPolicy) pageOut(id page.ID, data page.Buf) error {
	p := m.p
	loc := p.table[id]
	if loc == nil {
		loc = &location{}
		p.table[id] = loc
	}
	loc.lost = false

	// Overwrite existing replicas in place — both transfers in
	// flight simultaneously, so the pageout costs one round trip.
	// Each transfer additionally shares its server's multiplexed
	// connection with any concurrent pager traffic rather than
	// queueing behind it. Replicas whose server died mid-write are
	// dropped.
	if len(loc.replicas) > 0 {
		reqs := make([]sendReq, 0, len(loc.replicas))
		refs := make([]slotRef, 0, len(loc.replicas))
		for _, ref := range loc.replicas {
			if !p.servers[ref.srv].alive {
				continue
			}
			reqs = append(reqs, sendReq{srv: ref.srv, key: ref.key, data: data})
			refs = append(refs, ref)
		}
		errs := p.sendPages(reqs)
		kept := loc.replicas[:0]
		for i, ref := range refs {
			if errs[i] == nil {
				kept = append(kept, ref)
			}
		}
		loc.replicas = kept
	}

	// Top up to two replicas on distinct servers.
	for len(loc.replicas) < 2 {
		exclude := make([]int, 0, len(loc.replicas))
		for _, ref := range loc.replicas {
			exclude = append(exclude, ref.srv)
		}
		srv := p.pickServer(exclude...)
		if srv < 0 {
			break
		}
		key := p.allocKey()
		if err := p.sendPage(srv, key, data, true); err != nil {
			continue
		}
		loc.replicas = append(loc.replicas, slotRef{srv: srv, key: key})
	}

	switch len(loc.replicas) {
	case 2:
		if loc.onDisk {
			p.swap.Delete(uint64(id))
			loc.onDisk = false
		}
		return nil
	case 1:
		// Degraded: only one server available. Keep the single remote
		// copy and shadow it on disk so reliability is preserved.
		p.logf("mirroring degraded for %v: one replica + disk shadow", id)
		loc.onDisk = true
		p.stats.FallbackPageOuts++
		return p.diskPut(id, data)
	default:
		p.stats.FallbackPageOuts++
		loc.onDisk = true
		return p.diskPut(id, data)
	}
}

func (m *mirrorPolicy) pageIn(id page.ID) (page.Buf, error) {
	p := m.p
	loc := p.table[id]
	if loc == nil {
		return nil, ErrNotPagedOut
	}
	// Try each replica; the first one wins. A failed fetch triggers
	// the crash handler, which re-mirrors from the survivor. A replica
	// that persistently fails checksum verification is remembered and
	// repaired in place from whichever good copy is found.
	var corrupt []slotRef
	refs := append([]slotRef(nil), loc.replicas...)
	for _, ref := range refs {
		if !p.servers[ref.srv].alive {
			continue
		}
		data, err := p.fetchPage(ref.srv, ref.key)
		if err == nil {
			m.repairReplicas(corrupt, data)
			return data, nil
		}
		if isBadChecksum(err) {
			corrupt = append(corrupt, ref)
		}
	}
	if loc.onDisk {
		data, err := p.diskGet(id)
		if err == nil {
			m.repairReplicas(corrupt, data)
		}
		return data, err
	}
	if loc.lost {
		return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
	}
	return nil, fmt.Errorf("client: no replica of %v reachable", id)
}

// repairReplicas rewrites replicas whose reads failed checksum
// verification with known-good contents, restoring the mirror without
// surfacing the corruption to the faulting application.
func (m *mirrorPolicy) repairReplicas(corrupt []slotRef, data page.Buf) {
	p := m.p
	for _, ref := range corrupt {
		if !p.servers[ref.srv].alive {
			continue
		}
		if err := p.sendPage(ref.srv, ref.key, data, false); err == nil {
			p.stats.Rehomed++
		}
	}
}

func (m *mirrorPolicy) free(id page.ID) error {
	p := m.p
	loc := p.table[id]
	if loc == nil {
		return nil
	}
	for _, ref := range loc.replicas {
		p.freeSlots(ref.srv, ref.key)
	}
	if loc.onDisk {
		p.swap.Delete(uint64(id))
	}
	delete(p.table, id)
	return nil
}

// serverJoined: nothing to precompute — the joiner becomes a mirror
// target on the next placement or re-protection pass.
func (m *mirrorPolicy) serverJoined(int) {}

// tolerance: two replicas survive any one crash.
func (m *mirrorPolicy) tolerance() int { return 1 }

// redundancy counts live copies: two copies on distinct servers (or
// one copy plus the disk shadow) survive one more crash.
func (m *mirrorPolicy) redundancy() Redundancy {
	p := m.p
	var r Redundancy
	for _, loc := range p.table {
		if loc.lost {
			r.Lost++
			continue
		}
		copies := 0
		for _, ref := range loc.replicas {
			if p.servers[ref.srv].alive {
				copies++
			}
		}
		if loc.onDisk {
			copies++
		}
		switch {
		case copies >= 2:
			r.Full++
		case copies == 1:
			r.Degraded++
		default:
			r.Lost++
		}
	}
	return r
}

// handleCrash restores two-copy redundancy: for every page that had a
// replica on the dead server, read the surviving copy and mirror it
// onto another server.
func (m *mirrorPolicy) handleCrash(srv int) error {
	p := m.p
	var firstErr error
	for id, loc := range p.table {
		idx := -1
		for i, ref := range loc.replicas {
			if ref.srv == srv {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		loc.replicas = append(loc.replicas[:idx], loc.replicas[idx+1:]...)
		if len(loc.replicas) == 0 && !loc.onDisk {
			// Both copies were on servers and the second is gone too
			// (double failure) — page lost.
			loc.lost = true
			p.stats.LostPages++
			continue
		}
		if err := m.restoreRedundancy(id, loc); err != nil && firstErr == nil {
			firstErr = err
		} else {
			p.stats.Recovered++
		}
	}
	return firstErr
}

// restoreRedundancy brings loc back to two copies (or one copy plus
// disk shadow when no second server exists).
func (m *mirrorPolicy) restoreRedundancy(id page.ID, loc *location) error {
	p := m.p
	var data page.Buf
	var err error
	if len(loc.replicas) > 0 {
		data, err = p.fetchPage(loc.replicas[0].srv, loc.replicas[0].key)
	} else {
		data, err = p.diskGet(id)
	}
	if err != nil {
		return err
	}
	exclude := make([]int, 0, 1)
	for _, ref := range loc.replicas {
		exclude = append(exclude, ref.srv)
	}
	for tries := 0; tries < len(p.servers); tries++ {
		dst := p.pickServer(exclude...)
		if dst < 0 {
			break
		}
		key := p.allocKey()
		if err := p.sendPage(dst, key, data, true); err != nil {
			continue
		}
		loc.replicas = append(loc.replicas, slotRef{srv: dst, key: key})
		if len(loc.replicas) == 2 && loc.onDisk {
			p.swap.Delete(uint64(id))
			loc.onDisk = false
		}
		return nil
	}
	// No second server: shadow on disk.
	if !loc.onDisk {
		if err := p.diskPut(id, data); err != nil {
			return err
		}
		loc.onDisk = true
	}
	return nil
}

// evacuate moves this server's replicas elsewhere while it is still
// alive to cooperate.
func (m *mirrorPolicy) evacuate(srv int) error {
	p := m.p
	var ids []page.ID
	for id, loc := range p.table {
		for _, ref := range loc.replicas {
			if ref.srv == srv {
				ids = append(ids, id)
				break
			}
		}
	}
	for _, id := range ids {
		loc := p.table[id]
		idx := -1
		for i, ref := range loc.replicas {
			if ref.srv == srv {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		old := loc.replicas[idx]
		data, err := p.fetchPage(old.srv, old.key)
		if err != nil {
			return err
		}
		loc.replicas = append(loc.replicas[:idx], loc.replicas[idx+1:]...)
		p.freeSlots(srv, old.key)
		if len(loc.replicas) == 0 && !loc.onDisk {
			// The evacuated copy was the only one; shadow it on disk
			// so restoreRedundancy has a source to copy from.
			if err := p.diskPut(id, data); err != nil {
				return err
			}
			loc.onDisk = true
		}
		if err := m.restoreRedundancy(id, loc); err != nil {
			return err
		}
		p.stats.Migrated++
	}
	p.servers[srv].pressured = false
	return nil
}
