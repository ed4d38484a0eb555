// Command rmpbench regenerates the paper's evaluation: every figure
// of Markatos & Dramitinos, "Implementation of a Reliable Remote
// Memory Pager" (USENIX 1996), plus the live-system experiments.
//
// Usage:
//
//	rmpbench                  # run everything
//	rmpbench -fig 2           # one figure (1-5)
//	rmpbench -exp latency     # one experiment: latency, busy,
//	                          # loadednet, decomp, recovery,
//	                          # wtablation, tier, rs, scale, ...
//
// Kernel, frame-codec and round-trip timings are not here: they are
// the layer metrics of the gated benchmark (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rmp/internal/experiments"
)

var asCSV bool

func main() {
	experiments.MaybeSpin() // child role for the busy-server experiment
	fig := flag.Int("fig", 0, "regenerate one figure (1-5); 0 = all")
	exp := flag.String("exp", "", "run one experiment: latency|busy|loadednet|multiclient|decomp|recovery|wtablation|swidth|overflow|avail|tier|rs|scale")
	flag.BoolVar(&asCSV, "csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	start := time.Now()
	switch {
	case *fig != 0:
		runFig(*fig)
	case *exp != "":
		runExp(*exp)
	default:
		for f := 1; f <= 5; f++ {
			runFig(f)
		}
		for _, e := range []string{"decomp", "latency", "busy", "loadednet", "multiclient",
			"recovery", "wtablation", "swidth", "overflow", "avail", "tier", "rs"} {
			runExp(e)
		}
	}
	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
}

func runFig(n int) {
	var t *experiments.Table
	switch n {
	case 1:
		t = experiments.Fig1()
	case 2:
		t = experiments.Fig2()
	case 3:
		t = experiments.Fig3()
	case 4:
		t = experiments.Fig4()
	case 5:
		t = experiments.Fig5()
	default:
		log.Fatalf("rmpbench: no figure %d (the paper has 1-5)", n)
	}
	emit(t)
}

func emit(t *experiments.Table) {
	if asCSV {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}

func runExp(name string) {
	var (
		t   *experiments.Table
		err error
	)
	switch name {
	case "latency":
		t, err = experiments.Latency()
	case "busy":
		t, err = experiments.Busy()
	case "recovery":
		t, err = experiments.Recovery()
	case "loadednet":
		t = experiments.LoadedNet()
	case "decomp":
		t = experiments.Decomp()
	case "wtablation":
		t = experiments.WTAblation()
	case "swidth":
		t, err = experiments.GroupWidthAblation()
	case "overflow":
		t, err = experiments.OverflowAblation()
	case "avail":
		t = experiments.Availability()
	case "multiclient":
		t = experiments.MultiClient()
	case "tier":
		t, err = experiments.Tier()
	case "rs":
		t, err = experiments.RS()
	case "scale":
		t, err = experiments.Scale()
	default:
		log.Fatalf("rmpbench: unknown experiment %q", name)
	}
	if err != nil {
		log.Fatalf("rmpbench: %s: %v", name, err)
	}
	emit(t)
}
