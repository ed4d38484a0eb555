// Package blockdev defines the block-device boundary between the
// operating system's paging code and the RMP.
//
// In the paper the pager is "a block device driver linked to the DEC
// OSF/1 operating system": the kernel performs ordinary paging to a
// block device and never learns that the blocks live in remote
// memory. Device is that boundary — the VM layer (internal/vm, our
// stand-in for the OSF/1 VM) reads and writes page-sized blocks by
// number, and implementations route them to the pager, to a plain
// file, or to memory.
package blockdev

import (
	"errors"
	"fmt"
	"sync"

	"rmp/internal/client"
	"rmp/internal/page"
)

// Device is a page-granular block device. The VM reuses its frames:
// implementations must not reference data or buf after the call
// returns.
type Device interface {
	// ReadBlock fills every byte of buf with the contents of block bn.
	ReadBlock(bn int64, buf page.Buf) error
	// WriteBlock stores data as the contents of block bn. It copies what
	// it keeps: the caller overwrites data as soon as it returns.
	WriteBlock(bn int64, data page.Buf) error
	// Discard releases any storage for the given blocks (TRIM); the
	// VM calls it when an address space shrinks or exits.
	Discard(bns ...int64) error
	// Close releases device resources.
	Close() error
}

// ErrBadBlock is returned for negative block numbers.
var ErrBadBlock = errors.New("blockdev: negative block number")

// --- Pager-backed device -------------------------------------------------

// PagerDevice adapts a client.Pager to the Device interface: block
// number n is page.ID n. This is the configuration the paper runs —
// the kernel's paging requests flow into the remote memory pager.
type PagerDevice struct {
	Pager *client.Pager
}

var _ Device = (*PagerDevice)(nil)

// NewPagerDevice wraps an existing pager.
func NewPagerDevice(p *client.Pager) *PagerDevice { return &PagerDevice{Pager: p} }

func (d *PagerDevice) ReadBlock(bn int64, buf page.Buf) error {
	if bn < 0 {
		return ErrBadBlock
	}
	data, err := d.Pager.PageIn(page.ID(bn))
	if err != nil {
		return err
	}
	copy(buf, data)
	page.Put(data)
	return nil
}

func (d *PagerDevice) WriteBlock(bn int64, data page.Buf) error {
	if bn < 0 {
		return ErrBadBlock
	}
	return d.Pager.PageOut(page.ID(bn), data)
}

func (d *PagerDevice) Discard(bns ...int64) error {
	ids := make([]page.ID, 0, len(bns))
	for _, bn := range bns {
		if bn < 0 {
			return ErrBadBlock
		}
		ids = append(ids, page.ID(bn))
	}
	return d.Pager.Free(ids...)
}

// Close closes the underlying pager.
func (d *PagerDevice) Close() error { return d.Pager.Close() }

// --- In-memory device ----------------------------------------------------

// MemDevice is a trivial in-memory block device for tests and for
// running applications without any paging infrastructure.
type MemDevice struct {
	mu     sync.Mutex
	blocks map[int64]page.Buf
}

var _ Device = (*MemDevice)(nil)

// NewMemDevice creates an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{blocks: make(map[int64]page.Buf)} }

func (d *MemDevice) ReadBlock(bn int64, buf page.Buf) error {
	if bn < 0 {
		return ErrBadBlock
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.blocks[bn]
	if !ok {
		return fmt.Errorf("blockdev: block %d never written", bn)
	}
	copy(buf, data)
	return nil
}

func (d *MemDevice) WriteBlock(bn int64, data page.Buf) error {
	if bn < 0 {
		return ErrBadBlock
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks[bn] = data.Clone()
	return nil
}

func (d *MemDevice) Discard(bns ...int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, bn := range bns {
		if bn < 0 {
			return ErrBadBlock
		}
		delete(d.blocks, bn)
	}
	return nil
}

func (d *MemDevice) Close() error { return nil }

// Len returns the number of stored blocks.
func (d *MemDevice) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// --- Counting wrapper -----------------------------------------------------

// CountingDevice wraps a Device and counts traffic; the experiment
// harness uses it to measure an application's pagein/pageout volume.
type CountingDevice struct {
	Inner Device

	mu     sync.Mutex
	reads  uint64
	writes uint64
}

var _ Device = (*CountingDevice)(nil)

// NewCountingDevice wraps inner.
func NewCountingDevice(inner Device) *CountingDevice { return &CountingDevice{Inner: inner} }

func (d *CountingDevice) ReadBlock(bn int64, buf page.Buf) error {
	d.mu.Lock()
	d.reads++
	d.mu.Unlock()
	return d.Inner.ReadBlock(bn, buf)
}

func (d *CountingDevice) WriteBlock(bn int64, data page.Buf) error {
	d.mu.Lock()
	d.writes++
	d.mu.Unlock()
	return d.Inner.WriteBlock(bn, data)
}

func (d *CountingDevice) Discard(bns ...int64) error { return d.Inner.Discard(bns...) }
func (d *CountingDevice) Close() error               { return d.Inner.Close() }

// Counts returns (pageins, pageouts) seen so far.
func (d *CountingDevice) Counts() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}
