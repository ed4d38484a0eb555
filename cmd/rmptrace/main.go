// Command rmptrace records, inspects, and prices page-reference
// traces of the paper's workloads — the offline half of the
// evaluation pipeline.
//
//	rmptrace record -app GAUSS -scale 1.0 -o gauss.trc
//	rmptrace info gauss.trc
//	rmptrace faults -resident-mb 18 gauss.trc       # LRU fault counts
//	rmptrace charge -resident-mb 18 -policy paritylog -servers 4 gauss.trc
//
// Traces are the RMPT format of internal/trace; a paper-scale GAUSS
// trace (~11 M references) records in well under a second and a few
// MB.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rmp/internal/apps"
	"rmp/internal/sim"
	"rmp/internal/trace"
	"rmp/internal/vm"
)

var policyKinds = map[string]sim.PolicyKind{
	"disk":         sim.Disk,
	"none":         sim.None,
	"mirroring":    sim.Mirroring,
	"parity":       sim.Parity,
	"paritylog":    sim.ParityLogging,
	"writethrough": sim.WriteThrough,
}

func main() {
	if len(os.Args) < 2 {
		log.Fatal("rmptrace: need a subcommand: record | info | faults | charge")
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "record":
		record(args)
	case "info":
		info(args)
	case "faults":
		faults(args)
	case "charge":
		charge(args)
	default:
		log.Fatalf("rmptrace: unknown subcommand %q", cmd)
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "FFT", "workload: GAUSS|QSORT|FFT|MVEC|FILTER|CC")
	scale := fs.Float64("scale", 1.0, "input scale relative to the paper")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("rmptrace record: -o required")
	}
	w, err := apps.ByName(strings.ToUpper(*app), *scale)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	n, err := trace.SaveRefs(f, func(emit func(int64, bool)) { w.Trace(emit) })
	if err != nil {
		log.Fatal(err)
	}
	st, _ := f.Stat()
	fmt.Printf("%s (%.1f MB working set): %d refs -> %s (%.1f MB, %.2f B/ref) in %v\n",
		w.Name(), float64(w.Bytes())/(1<<20), n, *out,
		float64(st.Size())/(1<<20), float64(st.Size())/float64(n),
		time.Since(start).Round(time.Millisecond))
}

func openTrace(fs *flag.FlagSet) *os.File {
	if fs.NArg() != 1 {
		log.Fatal("rmptrace: need exactly one trace file argument")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	f := openTrace(fs)
	defer f.Close()
	var refs, writes uint64
	var maxPg int64
	n, err := trace.ReplayRefs(f, func(pg int64, write bool) {
		refs++
		if write {
			writes++
		}
		if pg > maxPg {
			maxPg = pg
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("records:   %d\n", n)
	fmt.Printf("writes:    %d (%.0f%%)\n", writes, 100*float64(writes)/float64(refs))
	fmt.Printf("max page:  %d (footprint %.1f MB)\n", maxPg, float64(maxPg+1)*8192/(1<<20))
}

// maxPage bounds the page numbers a replayed trace may name: the
// replayer's page table is flat, an entry per page up to the largest
// referenced, so 2^24 pages (a 128 GB address space) is an 80 MB table.
const maxPage = 1 << 24

// replayFaults runs the trace through an LRU and returns the stream.
func replayFaults(path string, residentMB int) []vm.Fault {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var out []vm.Fault
	rp := vm.NewReplayer(residentMB<<20/8192, func(fault vm.Fault) { out = append(out, fault) })
	inRange := true
	var bad int64
	_, err = trace.ReplayRefs(f, func(pg int64, write bool) {
		switch {
		case !inRange:
		case pg < 0 || pg >= maxPage:
			inRange, bad = false, pg
		default:
			rp.Ref(pg, write)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if !inRange {
		log.Fatalf("rmptrace: %s names page %d, outside [0, %d)", path, bad, maxPage)
	}
	return out
}

func faults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	residentMB := fs.Int("resident-mb", 18, "resident memory in MB (paper testbed: 18)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("rmptrace faults: need a trace file")
	}
	stream := replayFaults(fs.Arg(0), *residentMB)
	var ins, outs int
	for _, f := range stream {
		if f.Kind == vm.FaultIn {
			ins++
		} else {
			outs++
		}
	}
	fmt.Printf("resident:  %d MB\n", *residentMB)
	fmt.Printf("pageins:   %d\n", ins)
	fmt.Printf("pageouts:  %d\n", outs)
	fmt.Printf("paged I/O: %.1f MB\n", float64(ins+outs)*8192/(1<<20))
}

func charge(args []string) {
	fs := flag.NewFlagSet("charge", flag.ExitOnError)
	residentMB := fs.Int("resident-mb", 18, "resident memory in MB")
	policy := fs.String("policy", "paritylog", "disk|none|mirroring|parity|paritylog|writethrough")
	servers := fs.Int("servers", 4, "data servers (parity logging's S)")
	userSec := fs.Float64("utime", 0, "application compute seconds to include")
	netX := fs.Float64("netx", 1, "network bandwidth factor (10 = ETHERNET*10)")
	fs.Parse(args)
	kind, ok := policyKinds[strings.ToLower(*policy)]
	if !ok {
		log.Fatalf("rmptrace charge: unknown policy %q", *policy)
	}
	if fs.NArg() != 1 {
		log.Fatal("rmptrace charge: need a trace file")
	}
	stream := replayFaults(fs.Arg(0), *residentMB)
	cfg := sim.Config{
		Policy:        kind,
		Servers:       *servers,
		Net:           sim.Ethernet.Scaled(*netX),
		Disk:          sim.RZ55,
		ResidentBytes: int64(*residentMB) << 20,
		User:          time.Duration(*userSec * float64(time.Second)),
	}
	r := sim.ChargeFaults(fs.Arg(0), stream, cfg)
	fmt.Printf("policy:        %v (S=%d, net %gx Ethernet)\n", kind, *servers, *netX)
	fmt.Printf("pageins:       %d\n", r.PageIns)
	fmt.Printf("pageouts:      %d\n", r.PageOuts)
	fmt.Printf("net transfers: %d\n", r.Transfers)
	fmt.Printf("utime:         %v\n", r.Times.User)
	fmt.Printf("protocol time: %v\n", r.Times.Protocol.Round(time.Millisecond))
	fmt.Printf("blocking time: %v\n", r.Times.Blocking.Round(time.Millisecond))
	fmt.Printf("elapsed:       %v\n", r.Elapsed().Round(time.Millisecond))
}
