package client

import (
	"fmt"

	"rmp/internal/page"
)

// nonePolicy stores a single copy on one remote server (the paper's
// NO RELIABILITY configuration). It is the fastest policy — one
// transfer per pageout — but a server crash loses the pages stored
// there; PageIn then reports ErrPageLost.
//
//rmpvet:holds Pager.mu
type nonePolicy struct {
	p *Pager
}

func (n *nonePolicy) pageOut(id page.ID, data page.Buf) error {
	p := n.p
	loc := p.table[id]
	if loc == nil {
		loc = &location{}
		p.table[id] = loc
	}
	loc.lost = false

	// Overwrite in place when the page already has a remote home.
	if len(loc.replicas) == 1 {
		ref := loc.replicas[0]
		if p.servers[ref.srv].alive {
			if err := p.sendPage(ref.srv, ref.key, data, false); err == nil {
				return nil
			}
			// Server died mid-send; fall through to re-place. The crash
			// handler has already marked this page lost; un-mark it —
			// we hold the current contents right here.
			loc.lost = false
		}
		loc.replicas = nil
	}

	return n.place(id, loc, data)
}

// place finds a home for a fresh copy: best server first, local disk
// as the last resort (§2.1: "If no server having enough free memory
// can be found the client's local disk will be used").
func (n *nonePolicy) place(id page.ID, loc *location, data page.Buf) error {
	p := n.p
	for tries := 0; tries < len(p.servers); tries++ {
		srv := p.pickServer()
		if srv < 0 {
			break
		}
		key := p.allocKey()
		if err := p.sendPage(srv, key, data, true); err != nil {
			continue // that server just died; try the next
		}
		loc.replicas = []slotRef{{srv: srv, key: key}}
		if loc.onDisk {
			p.swap.Delete(uint64(id))
			loc.onDisk = false
		}
		return nil
	}
	p.stats.FallbackPageOuts++
	loc.replicas = nil
	loc.onDisk = true
	return p.diskPut(id, data)
}

func (n *nonePolicy) pageIn(id page.ID) (page.Buf, error) {
	p := n.p
	loc := p.table[id]
	if loc == nil {
		return nil, ErrNotPagedOut
	}
	if loc.lost {
		return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
	}
	if len(loc.replicas) == 1 {
		data, err := p.fetchPage(loc.replicas[0].srv, loc.replicas[0].key)
		if err == nil {
			return data, nil
		}
		if loc.lost { // crash handler ran inside fetchPage
			return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
		}
		return nil, err
	}
	if loc.onDisk {
		return p.diskGet(id)
	}
	return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
}

func (n *nonePolicy) free(id page.ID) error {
	p := n.p
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

// serverJoined: nothing to precompute — pickServer sees the new
// server on the next placement.
func (n *nonePolicy) serverJoined(int) {}

// tolerance: a single copy loses pages on the first crash.
func (n *nonePolicy) tolerance() int { return 0 }

// redundancy: a remote-only copy dies with its server (Degraded); a
// disk-fallback copy survives any server crash (Full).
func (n *nonePolicy) redundancy() Redundancy {
	p := n.p
	var r Redundancy
	for _, loc := range p.table {
		switch {
		case loc.lost:
			r.Lost++
		case loc.onDisk:
			r.Full++
		case len(loc.replicas) == 1 && p.servers[loc.replicas[0].srv].alive:
			r.Degraded++
		default:
			// Copy sits on a dead server awaiting crash handling.
			r.Lost++
		}
	}
	return r
}

// handleCrash marks every page homed on the dead server as lost.
func (n *nonePolicy) handleCrash(srv int) error {
	p := n.p
	for _, loc := range p.table {
		if len(loc.replicas) == 1 && loc.replicas[0].srv == srv {
			loc.replicas = nil
			loc.lost = true
			p.stats.LostPages++
		}
	}
	return nil
}

// evacuate moves every page off a pressured (but alive) server.
func (n *nonePolicy) evacuate(srv int) error {
	p := n.p
	var ids []page.ID
	for id, loc := range p.table {
		if len(loc.replicas) == 1 && loc.replicas[0].srv == srv {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		loc := p.table[id]
		ref := loc.replicas[0]
		data, err := p.fetchPage(ref.srv, ref.key)
		if err != nil {
			return err
		}
		// New home, excluding the pressured server.
		placed := false
		for tries := 0; tries < len(p.servers); tries++ {
			dst := p.pickServer(srv)
			if dst < 0 {
				break
			}
			key := p.allocKey()
			if err := p.sendPage(dst, key, data, true); err != nil {
				continue
			}
			p.freeSlots(srv, ref.key)
			loc.replicas = []slotRef{{srv: dst, key: key}}
			placed = true
			break
		}
		if !placed {
			if err := p.diskPut(id, data); err != nil {
				return err
			}
			p.stats.FallbackPageOuts++
			p.freeSlots(srv, ref.key)
			loc.replicas = nil
			loc.onDisk = true
		}
		p.stats.Migrated++
	}
	p.servers[srv].pressured = false
	return nil
}
