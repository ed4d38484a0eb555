package client

import (
	"rmp/internal/page"
)

// writeThroughPolicy stores one copy on a remote server and writes
// every pageout to the local disk as well, treating remote memory as
// a write-through cache of the disk (paper §4.7, after [11]). The two
// transfers run in parallel; reads are served from remote memory, so
// the disk head never moves for reads. A server crash loses nothing —
// the disk holds everything — and the pager re-pushes the affected
// pages to a healthy server to restore read performance.
//
//rmpvet:holds Pager.mu
type writeThroughPolicy struct {
	p *Pager
}

func (w *writeThroughPolicy) pageOut(id page.ID, data page.Buf) error {
	p := w.p
	loc := p.table[id]
	if loc == nil {
		loc = &location{}
		p.table[id] = loc
	}

	// Disk write proceeds concurrently with the network transfer;
	// both must complete before the pageout is acknowledged.
	diskErr := make(chan error, 1)
	go func() { diskErr <- p.diskPut(id, data) }()

	w.sendRemote(id, loc, data)
	err := <-diskErr
	loc.onDisk = err == nil
	return err
}

// sendRemote best-effort places/overwrites the remote copy; failure
// is tolerable because the disk copy is authoritative.
func (w *writeThroughPolicy) sendRemote(id page.ID, loc *location, data page.Buf) {
	p := w.p
	if len(loc.replicas) == 1 {
		ref := loc.replicas[0]
		if p.servers[ref.srv].alive {
			if err := p.sendPage(ref.srv, ref.key, data, false); err == nil {
				return
			}
		}
		loc.replicas = nil
	}
	for tries := 0; tries < len(p.servers); tries++ {
		srv := p.pickServer()
		if srv < 0 {
			return
		}
		key := p.allocKey()
		if err := p.sendPage(srv, key, data, true); err != nil {
			continue
		}
		loc.replicas = []slotRef{{srv: srv, key: key}}
		return
	}
}

func (w *writeThroughPolicy) pageIn(id page.ID) (page.Buf, error) {
	p := w.p
	loc := p.table[id]
	if loc == nil {
		return nil, ErrNotPagedOut
	}
	if len(loc.replicas) == 1 && p.servers[loc.replicas[0].srv].alive {
		ref := loc.replicas[0]
		data, err := p.fetchPage(ref.srv, ref.key)
		if err == nil {
			return data, nil
		}
		// A corrupt remote read falls back to the authoritative disk
		// copy, which also repairs the remote cache in place.
		if isBadChecksum(err) && loc.onDisk {
			data, derr := p.diskGet(id)
			if derr == nil {
				if p.servers[ref.srv].alive {
					if serr := p.sendPage(ref.srv, ref.key, data, false); serr == nil {
						p.stats.Rehomed++
					}
				}
				return data, nil
			}
		}
	}
	return p.diskGet(id)
}

func (w *writeThroughPolicy) free(id page.ID) error {
	p := w.p
	loc := p.table[id]
	if loc == nil {
		return nil
	}
	for _, ref := range loc.replicas {
		p.freeSlots(ref.srv, ref.key)
	}
	p.swap.Delete(uint64(id))
	delete(p.table, id)
	return nil
}

// serverJoined: nothing to precompute — sendRemote picks the joiner
// up on the next placement.
func (w *writeThroughPolicy) serverJoined(int) {}

// tolerance: the local disk copy survives every server crashing at
// once; report a value that lands in ExposureAtTol's top bucket.
func (w *writeThroughPolicy) tolerance() int { return len(w.p.servers) }

// redundancy: the disk copy is authoritative and survives any server
// crash; a page whose disk write failed has only its remote copy.
func (w *writeThroughPolicy) redundancy() Redundancy {
	p := w.p
	var r Redundancy
	for _, loc := range p.table {
		switch {
		case loc.onDisk:
			r.Full++
		case len(loc.replicas) == 1 && p.servers[loc.replicas[0].srv].alive:
			r.Degraded++
		default:
			r.Lost++
		}
	}
	return r
}

// handleCrash re-pushes the dead server's pages from disk to a
// healthy server so reads stay at memory speed.
func (w *writeThroughPolicy) handleCrash(srv int) error {
	p := w.p
	var firstErr error
	for id, loc := range p.table {
		if len(loc.replicas) != 1 || loc.replicas[0].srv != srv {
			continue
		}
		loc.replicas = nil
		data, err := p.diskGet(id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		w.sendRemote(id, loc, data)
		p.stats.Rehomed++
	}
	return firstErr
}

// evacuate re-pushes pages from disk to other servers and frees the
// pressured server's slots.
func (w *writeThroughPolicy) evacuate(srv int) error {
	p := w.p
	for id, loc := range p.table {
		if len(loc.replicas) != 1 || loc.replicas[0].srv != srv {
			continue
		}
		key := loc.replicas[0].key
		loc.replicas = nil
		p.freeSlots(srv, key)
		data, err := p.diskGet(id)
		if err != nil {
			return err
		}
		// Exclude the pressured server from re-placement.
		for tries := 0; tries < len(p.servers); tries++ {
			dst := p.pickServer(srv)
			if dst < 0 {
				break
			}
			nk := p.allocKey()
			if err := p.sendPage(dst, nk, data, true); err != nil {
				continue
			}
			loc.replicas = []slotRef{{srv: dst, key: nk}}
			break
		}
		p.stats.Migrated++
	}
	p.servers[srv].pressured = false
	return nil
}
