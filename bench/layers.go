package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"rmp/internal/blockdev"
	"rmp/internal/client"
	"rmp/internal/disk"
	"rmp/internal/page"
	"rmp/internal/pagestore"
	"rmp/internal/parity"
	"rmp/internal/rs"
	"rmp/internal/server"
	"rmp/internal/store"
	"rmp/internal/vm"
	"rmp/internal/wire"
)

// Isolated layer drives: each layer alone, through its public
// functions, on the same payloads as the workloads, per 8 KB page.
// They explain a workload's number; they certify nothing (no bound).
var layerDriveDefs = []metricDef{
	{"transport.echo8k_rt_us", "us"}, // raw TCP loopback echo: the floor no change here can beat
	{"conn.pagein_rt_us", "us"},
	{"conn.pageout_rt_us", "us"},
	{"conn.batch32_us_per_page", "us"},
	{"conn.rt_allocs", "count"}, // per pageout + pagein pair, client and server together
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_allocs", "count"},
	{"wire.decode_allocs", "count"},
	{"store.put_hot_ns", "ns"},
	{"store.get_hot_ns", "ns"},
	{"store.get_cold_ns", "ns"}, // hot tier full: decompress + promote + the demotion that forces
	{"store.demote_ns", "ns"},
	{"store.get_allocs", "count"},
	{"pagestore.put_ns", "ns"},
	{"pagestore.get_ns", "ns"},
	{"page.xor_ns", "ns"},
	{"page.checksum_ns", "ns"},
	{"page.pool_getput_ns", "ns"},
	{"parity.append_ns", "ns"},
	{"parity.reconstruct_ns", "ns"},
	{"rs.encode_ns_per_page", "ns"},
	{"rs.reconstruct_ns_per_page", "ns"},
	{"vm.hit_ns", "ns"},
	{"vm.fault_ns", "ns"},
	{"blockdev.copy_ns", "ns"},
	{"disk.put_us", "us"}, // WRITE_THROUGH's swap file; no workload uses it yet
	{"disk.get_us", "us"},
}

// drive calls fn for about budget and returns the mean time and heap
// allocations per call (process-wide, so a server goroutine's count).
func drive(budget time.Duration, fn func()) (ns, allocs float64) {
	fn() // first call pays one-time set-up
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	const batch = 16
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

// layerPages is the key range the store-like drives cycle over.
const layerPages = 256

// layerDrives runs every isolated drive for about budget each. A drive
// that cannot run reports on stderr and leaves its metrics at 0.
func layerDrives(budget time.Duration) metricSet {
	out := newMetricSet(layerDriveDefs)
	pages := make([]page.Buf, layerPages)
	for i := range pages {
		pages[i] = page.NewBuf()
		fillPayload(pages[i], payloadTag(1, page.ID(i), 1))
	}
	for _, d := range []func(time.Duration, []page.Buf, func(string, float64)) error{
		driveEcho, driveConn, driveWire, driveStore, drivePagestore, drivePage,
		driveParity, driveRS, driveVM, driveDisk,
	} {
		if err := d(budget, pages, out.set); err != nil {
			fmt.Fprintln(os.Stderr, "bench: layer drive:", err)
		}
	}
	return out
}

func driveEcho(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := page.NewBuf()
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	back := page.NewBuf()
	ns, _ := drive(budget, func() {
		if _, err = c.Write(pages[0]); err == nil {
			_, err = io.ReadFull(c, back)
		}
	})
	c.Close()
	<-echoed
	set("transport.echo8k_rt_us", ns/1e3)
	return err
}

func driveConn(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	s := server.New(server.Config{CapacityPages: serverCapacityPages, OverflowFrac: serverOverflowFrac})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer s.Close()
	c, err := client.Dial(s.Addr().String(), "bench-layers", "")
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Alloc(2 * layerPages); err != nil {
		return err
	}
	for k, p := range pages {
		if err := c.PageOut(uint64(k), p); err != nil {
			return err
		}
	}
	i := 0
	outNS, outAllocs := drive(budget, func() {
		if e := c.PageOut(uint64(i%layerPages), pages[i%layerPages]); e != nil {
			err = e
		}
		i++
	})
	inNS, inAllocs := drive(budget, func() {
		got, e := c.PageIn(uint64(i % layerPages))
		if e != nil {
			err = e
		}
		page.Put(got)
		i++
	})
	keys := make([]uint64, 32)
	for k := range keys {
		keys[k] = uint64(layerPages + k)
	}
	batchNS, _ := drive(budget, func() {
		if e := c.PageOutBatch(keys, pages[:32]); e != nil {
			err = e
		}
	})
	set("conn.pageout_rt_us", outNS/1e3)
	set("conn.pagein_rt_us", inNS/1e3)
	set("conn.batch32_us_per_page", batchNS/32/1e3)
	set("conn.rt_allocs", outAllocs+inAllocs)
	return err
}

func driveWire(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	msg := (&wire.Msg{Version: wire.Version2, ID: 7, Type: wire.TPageOut, Key: 42, Data: pages[0]}).WithChecksum()
	fw := wire.NewFrameWriter(io.Discard)
	var err error
	encNS, encAllocs := drive(budget, func() {
		if e := fw.Queue(msg); e != nil {
			err = e
		}
		if e := fw.Flush(); e != nil {
			err = e
		}
	})
	var raw bytes.Buffer
	if err := wire.Encode(&raw, msg); err != nil {
		return err
	}
	r := bytes.NewReader(raw.Bytes())
	decNS, decAllocs := drive(budget, func() {
		r.Reset(raw.Bytes())
		m, e := wire.DecodePooled(r)
		if e != nil {
			err = e
		}
		wire.Recycle(m)
	})
	set("wire.encode_ns", encNS)
	set("wire.encode_allocs", encAllocs)
	set("wire.decode_ns", decNS)
	set("wire.decode_allocs", decAllocs)
	return err
}

func driveStore(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	hot, err := store.New(store.Config{CapacityPages: 4 * layerPages})
	if err != nil {
		return err
	}
	defer hot.Close()
	for k, p := range pages {
		if err := hot.Put(uint64(k), p); err != nil {
			return err
		}
	}
	i := 0
	putNS, _ := drive(budget, func() {
		if e := hot.Put(uint64(i%layerPages), pages[i%layerPages]); e != nil {
			err = e
		}
		i++
	})
	getNS, getAllocs := drive(budget, func() {
		got, e := hot.Get(uint64(i % layerPages))
		if e != nil {
			err = e
		}
		page.Put(got)
		i++
	})
	set("store.put_hot_ns", putNS)
	set("store.get_hot_ns", getNS)
	set("store.get_allocs", getAllocs)

	// Half the pages fit hot and the keys are read in a cycle, so LRU
	// makes every Get a cold hit.
	cold, err := store.New(store.Config{CapacityPages: 4 * layerPages, HotPages: layerPages / 2})
	if err != nil {
		return err
	}
	defer cold.Close()
	for k, p := range pages {
		if err := cold.Put(uint64(k), p); err != nil {
			return err
		}
	}
	cold.Enforce()
	coldNS, _ := drive(budget, func() {
		got, e := cold.Get(uint64(i % layerPages))
		if e != nil {
			err = e
		}
		page.Put(got)
		i++
	})
	set("store.get_cold_ns", coldNS)

	// Demotion alone: shrink the hot target under a hot store and time
	// the enforcement; restoring it is not timed.
	var demoting time.Duration
	demoted := 0
	for start := time.Now(); time.Since(start) < budget; {
		hot.SetTargets(1, 0)
		t0 := time.Now()
		demoted += hot.Enforce()
		demoting += time.Since(t0)
		hot.SetTargets(0, 0)
		hot.PromoteHot()
	}
	if demoted > 0 {
		set("store.demote_ns", float64(demoting)/float64(demoted))
	}
	return err
}

func drivePagestore(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	s := pagestore.New(4*layerPages, serverOverflowFrac)
	for k, p := range pages {
		if err := s.Put(uint64(k), p); err != nil {
			return err
		}
	}
	var err error
	i := 0
	putNS, _ := drive(budget, func() {
		if e := s.Put(uint64(i%layerPages), pages[i%layerPages]); e != nil {
			err = e
		}
		i++
	})
	getNS, _ := drive(budget, func() {
		got, e := s.Get(uint64(i % layerPages))
		if e != nil {
			err = e
		}
		page.Put(got)
		i++
	})
	set("pagestore.put_ns", putNS)
	set("pagestore.get_ns", getNS)
	return err
}

var checksumSink uint32

func drivePage(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	dst := pages[0].Clone()
	xorNS, _ := drive(budget, func() { page.XORInto(dst, pages[1]) })
	sumNS, _ := drive(budget, func() { checksumSink += pages[1].Checksum() })
	poolNS, _ := drive(budget, func() { page.Put(page.Get()) })
	dev := blockdev.NewMemDevice()
	if err := dev.WriteBlock(0, pages[0]); err != nil {
		return err
	}
	var err error
	copyNS, _ := drive(budget, func() {
		if e := dev.ReadBlock(0, dst); e != nil {
			err = e
		}
	})
	set("page.xor_ns", xorNS)
	set("page.checksum_ns", sumNS)
	set("page.pool_getput_ns", poolNS)
	set("blockdev.copy_ns", copyNS)
	return err
}

func driveParity(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	log, err := parity.NewLog(4)
	if err != nil {
		return err
	}
	i := 0
	appendNS, _ := drive(budget, func() {
		if _, _, _, e := log.Append(page.ID(i%layerPages), pages[i%layerPages]); e != nil {
			err = e
		}
		i++
	})
	set("parity.append_ns", appendNS)
	if err != nil {
		return err
	}
	plan, err := log.PlanRecovery(0)
	if err != nil {
		return err
	}
	for _, lost := range plan.Lost {
		if lost.UseBuffer {
			continue
		}
		survivors := pages[:len(lost.Survivors)]
		ns, _ := drive(budget, func() {
			if _, e := log.Reconstruct(lost, survivors); e != nil {
				err = e
			}
		})
		set("parity.reconstruct_ns", ns)
		return err
	}
	return fmt.Errorf("parity: no sealed group lost a page in column 0")
}

func driveRS(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	code, err := rs.New(4, 2)
	if err != nil {
		return err
	}
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = pages[i].Clone()
	}
	encNS, _ := drive(budget, func() {
		if e := code.Encode(shards[:4], shards[4:]); e != nil {
			err = e
		}
	})
	// Two data shards lost, rebuilt from the other two and both parities.
	present := []bool{false, true, false, true, true, true}
	recNS, _ := drive(budget, func() {
		if e := code.Reconstruct(shards, present); e != nil {
			err = e
		}
	})
	set("rs.encode_ns_per_page", encNS/4)
	set("rs.reconstruct_ns_per_page", recNS/2)
	return err
}

var vmSink uint64

func driveVM(budget time.Duration, _ []page.Buf, set func(string, float64)) error {
	const words = page.Size / 8
	space, err := vm.New(layerPages*page.Size, 8*page.Size, blockdev.NewMemDevice())
	if err != nil {
		return err
	}
	for p := int64(0); p < layerPages; p++ { // back every page, so faults read
		if err := space.SetUint64(p*words, uint64(p)); err != nil {
			return err
		}
	}
	hitNS, _ := drive(budget, func() {
		v, e := space.Uint64(3)
		if e != nil {
			err = e
		}
		vmSink += v
	})
	p := int64(0)
	faultNS, _ := drive(budget, func() { // cyclic over 256 pages with 8 resident: every access faults
		v, e := space.Uint64(p * words)
		if e != nil {
			err = e
		}
		vmSink += v
		p = (p + 1) % layerPages
	})
	set("vm.hit_ns", hitNS)
	set("vm.fault_ns", faultNS)
	return err
}

func driveDisk(budget time.Duration, pages []page.Buf, set func(string, float64)) error {
	d, err := disk.OpenTemp(disk.LatencyModel{})
	if err != nil {
		return err
	}
	defer d.Close()
	for k, p := range pages {
		if err := d.Put(uint64(k), p); err != nil {
			return err
		}
	}
	i := 0
	putNS, _ := drive(budget, func() {
		if e := d.Put(uint64(i%layerPages), pages[i%layerPages]); e != nil {
			err = e
		}
		i++
	})
	getNS, _ := drive(budget, func() {
		got, e := d.Get(uint64(i % layerPages))
		if e != nil {
			err = e
		}
		page.Put(got)
		i++
	})
	set("disk.put_us", putNS/1e3)
	set("disk.get_us", getNS/1e3)
	return err
}
