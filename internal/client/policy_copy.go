package client

import (
	"fmt"

	"rmp/internal/page"
)

// copyPolicy is the whole-copy engine behind three of the pager's
// policies: a page is kept as whole copies on distinct servers, plus a
// copy on the local disk either always or only while the servers hold
// fewer than the shape asks for. The policies are three shapes of it:
//
//	                 copies  diskAlways
//	NO_RELIABILITY     1       false    one transfer; a crash loses the page
//	MIRRORING (§2.2)   2       false    two transfers, twice the memory
//	WRITE_THROUGH      1       true     remote memory as a write-through
//	                                    cache of the disk (§4.7, after [11])
//
// There is one of everything. A pageout overwrites the replicas the
// page has, tops up to the shape and settles the disk copy; a pagein
// walks the replicas, then the disk; a crash, an evacuation and a drain
// are all "take that replica away, then restore": read any surviving
// copy and top up. One census and one tolerance rule cover every shape.
//
//rmpvet:holds Pager.mu
type copyPolicy struct {
	p *Pager
	// copies is how many whole copies of a page are kept on distinct
	// servers.
	copies int
	// diskAlways keeps every page on the local disk as well; without it
	// the disk holds a page only while it is short of copies (§2.1: "If
	// no server having enough free memory can be found the client's
	// local disk will be used").
	diskAlways bool
}

func (c *copyPolicy) pageOut(id page.ID, data page.Buf) error {
	p := c.p
	loc := p.entry(id)
	loc.lost = false

	var disk chan error
	if c.diskAlways {
		// §4.7: the disk write proceeds concurrently with the network
		// transfer; both complete before the pageout is acknowledged.
		disk = make(chan error, 1)
		go func(done chan<- error) { done <- p.swap.Put(uint64(id), data) }(disk)
	}

	// The replicas are detached while copies are in flight: a crash
	// handler that runs inside a send then leaves this page to the
	// pageout, which holds its newest contents.
	held := loc.replicas
	loc.replicas = nil
	var one [1]error
	errs := one[:]
	if len(held) == 1 {
		// The single-copy shapes' steady state is this one direct send: no
		// request slice, no goroutine.
		errs[0] = p.sendPage(held[0].srv, held[0].key, data, false)
	} else {
		// Every transfer in flight at once, so the overwrite costs one
		// round trip however many copies there are.
		reqs := make([]sendReq, len(held))
		for i, ref := range held {
			reqs[i] = sendReq{srv: ref.srv, key: ref.key, data: data}
		}
		errs = p.sendPages(reqs)
	}
	// A replica that did not take the write is dropped — the stale copy
	// freed if its server still lives — and its server not asked again.
	var tried []int
	kept := held[:0]
	for i, ref := range held {
		if errs[i] == nil {
			kept = append(kept, ref)
			continue
		}
		p.freeSlots(ref.srv, ref.key)
		tried = append(tried, ref.srv)
	}
	loc.replicas = c.topUp(kept, data, tried)

	if disk != nil {
		err := <-disk
		loc.onDisk = err == nil
		if err == nil {
			p.stats.DiskWrites++
		}
		return err
	}
	return c.settleDisk(id, loc, data, true)
}

// topUp places fresh copies of data until held has c.copies replicas on
// live servers, and returns them. No server is asked twice: every pick
// excludes the servers that hold a replica and every server tried so
// far, so the loop ends after at most one pass over the cluster —
// against a server that grants space and then refuses the page, too.
func (c *copyPolicy) topUp(held []slotRef, data page.Buf, tried []int) []slotRef {
	p := c.p
	if held = c.live(held); len(held) >= c.copies {
		return held
	}
	for _, ref := range held {
		tried = append(tried, ref.srv)
	}
	for len(held) < c.copies {
		srv := p.pickServer(tried...)
		if srv < 0 {
			break
		}
		tried = append(tried, srv)
		key := p.allocKey()
		if p.sendPage(srv, key, data, true) == nil {
			held = append(held, slotRef{srv: srv, key: key})
		}
		held = c.live(held) // a failed send can take other servers down with it
	}
	return held
}

// live filters refs, in place, down to the copies on live servers.
func (c *copyPolicy) live(refs []slotRef) []slotRef {
	kept := refs[:0]
	for _, ref := range refs {
		if c.p.servers[ref.srv].alive {
			kept = append(kept, ref)
		}
	}
	return kept
}

// settleDisk applies the one disk rule once loc's replicas are placed:
// the disk holds the page iff the shape always keeps it there or the
// page is short of copies. fresh says data is a new pageout of a shape
// without diskAlways (whose pageout has written the disk itself): a
// disk copy is then stale, and keeping the page on disk for want of
// servers counts as a fallback pageout.
func (c *copyPolicy) settleDisk(id page.ID, loc *location, data page.Buf, fresh bool) error {
	p := c.p
	if !c.diskAlways && len(loc.replicas) >= c.copies {
		if loc.onDisk {
			p.swap.Delete(uint64(id))
			loc.onDisk = false
		}
		return nil
	}
	if loc.onDisk && !fresh {
		return nil
	}
	if fresh {
		p.stats.FallbackPageOuts++
	}
	loc.onDisk = true
	return p.diskPut(id, data)
}

func (c *copyPolicy) pageIn(id page.ID) (page.Buf, error) {
	loc := c.p.table[id]
	if loc == nil {
		return nil, ErrNotPagedOut
	}
	return c.read(id, loc)
}

// read returns id's bytes from the first copy that yields them: the
// live replicas in order, then the disk. A replica whose read failed
// its checksum on the way is rewritten in place from those bytes, so a
// corrupt copy is repaired without the application seeing it.
func (c *copyPolicy) read(id page.ID, loc *location) (page.Buf, error) {
	p := c.p
	var data page.Buf
	var err error
	var corrupt []slotRef
	for i := 0; data == nil && i < len(loc.replicas); {
		ref := loc.replicas[i]
		if p.servers[ref.srv].alive {
			// (err != nil first: isBadChecksum's errors.As target allocates.)
			if data, err = p.fetchPage(ref.srv, ref.key); err != nil && isBadChecksum(err) {
				corrupt = append(corrupt, ref)
			}
		}
		// A transport failure ran the crash handler, which took this
		// replica out and may have appended its replacement: step only
		// past a replica that is still in place.
		if i < len(loc.replicas) && loc.replicas[i] == ref {
			i++
		}
	}
	if data == nil && loc.onDisk {
		data, err = p.diskGet(id)
	}
	switch {
	case data != nil:
	case len(loc.replicas) == 0 && !loc.onDisk:
		return nil, fmt.Errorf("%w: %v", ErrPageLost, id)
	case err != nil:
		return nil, err
	default:
		// Every copy sits on a dead server that awaits its crash handler.
		return nil, fmt.Errorf("client: no replica of %v reachable", id)
	}
	for _, ref := range corrupt {
		if p.servers[ref.srv].alive && p.sendPage(ref.srv, ref.key, data, false) == nil {
			p.stats.Rehomed++
		}
	}
	return data, nil
}

func (c *copyPolicy) free(id page.ID) error {
	p := c.p
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

// serverJoined: nothing to precompute — pickServer sees the joiner on
// the next placement, restore or disk-page promotion.
func (c *copyPolicy) serverJoined(int) {}

// tolerance: n copies survive n-1 crashes. The disk copy survives every
// server at once: report enough that the window lands in
// ExposureAtTol's top bucket whatever the number of pending deaths.
func (c *copyPolicy) tolerance() int {
	if c.diskAlways {
		return len(c.p.servers) + len(c.p.stats.ExposureAtTol) - 1
	}
	return c.copies - 1
}

// redundancy is the one census: a page on the disk (which does not die
// with a server) or on two live servers survives one more crash; one
// live copy is degraded; none is lost.
func (c *copyPolicy) redundancy() Redundancy {
	p := c.p
	var r Redundancy
	for _, loc := range p.table {
		live := 0
		for _, ref := range loc.replicas {
			if p.servers[ref.srv].alive {
				live++
			}
		}
		switch {
		case loc.onDisk || live >= 2:
			r.Full++
		case live == 1:
			r.Degraded++
		default:
			r.Lost++
		}
	}
	return r
}

// handleCrash restores every page that had a replica on the dead server;
// a copy count restored after a crash counts as Recovered.
func (c *copyPolicy) handleCrash(srv int) error {
	return c.moveOff(srv, &c.p.stats.Recovered)
}

// evacuate moves every replica off a pressured or draining server while
// it is still alive to serve them.
func (c *copyPolicy) evacuate(srv int) error {
	err := c.moveOff(srv, &c.p.stats.Migrated)
	if err == nil {
		c.p.servers[srv].pressured = false
	}
	return err
}

// moveOff restores every page that holds a replica on srv, counting the
// pages brought back to their shape in *moved.
func (c *copyPolicy) moveOff(srv int, moved *uint64) error {
	p := c.p
	var ids []page.ID
	for id, loc := range p.table {
		if loc.on(srv) {
			ids = append(ids, id)
		}
	}
	var firstErr error
	for _, id := range ids {
		loc := p.table[id]
		if loc == nil || !loc.on(srv) {
			continue // a crash handler nested in an earlier restore got here first
		}
		if err := c.restore(id, loc, srv); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else if !loc.lost {
			*moved++
		}
	}
	return firstErr
}

// restore is the one recovery path. The page's replica on server off is
// going away — off died, or is being evacuated — so: read any surviving
// copy, drop that replica, top up to the shape on other servers and
// settle the disk copy. A page with no copy left is lost.
func (c *copyPolicy) restore(id page.ID, loc *location, off int) error {
	p := c.p
	data, err := c.read(id, loc)
	if err != nil && p.servers[off].alive {
		return err // the copy on off stays where it is until it can be read
	}
	// Detached from here on, as in pageOut: the free and the sends below
	// are I/O, and a failure there runs a crash handler.
	refs := loc.replicas
	loc.replicas = nil
	held := refs[:0]
	for _, ref := range refs {
		if ref.srv == off {
			p.freeSlots(off, ref.key) // no-op for a dead server: its memory went with it
		} else {
			held = append(held, ref)
		}
	}
	if err != nil {
		loc.replicas = held
		if len(held) > 0 || loc.onDisk {
			return err
		}
		loc.lost = true
		p.stats.LostPages++
		return nil
	}
	loc.replicas = c.topUp(held, data, []int{off})
	return c.settleDisk(id, loc, data, false)
}
