// Package rmp's top-level benchmarks regenerate every table and
// figure of the paper's evaluation under `go test -bench`, one
// benchmark per artifact. `cmd/rmpbench` prints the same tables for
// human eyes. The live TCP system is measured by the gated benchmark
// in bench/ (`bash bench/run.sh`), end to end and layer by layer.
package rmp

import (
	"testing"

	"rmp/internal/apps"
	"rmp/internal/experiments"
	"rmp/internal/sim"
)

// --- one benchmark per figure -------------------------------------------

func BenchmarkFig1IdleMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig1(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig2(); len(tab.Rows) != 6 {
			b.Fatal("fig2 incomplete")
		}
	}
}

func BenchmarkFig3InputScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig3(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig4Extrapolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig4(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5WriteThrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig5(); len(tab.Rows) != 4 {
			b.Fatal("fig5 incomplete")
		}
	}
}

func BenchmarkDecompWorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Decomp(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkLoadedEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.LoadedNet(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkWTAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.WTAblation(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkGroupWidthAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.GroupWidthAblation()
		if err != nil || len(tab.Rows) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverflowAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.OverflowAblation()
		if err != nil || len(tab.Rows) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Availability(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkMultiClientEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.MultiClient(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- per-application model runs (Figure 2's inner loop) ------------------

func BenchmarkSimulateApp(b *testing.B) {
	for _, w := range apps.All(1.0) {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			stream := sim.FaultStream(w, experiments.ResidentBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{
					Policy:        sim.ParityLogging,
					Servers:       4,
					Net:           sim.Ethernet,
					Disk:          sim.RZ55,
					ResidentBytes: experiments.ResidentBytes,
				}
				r := sim.ChargeFaults(w.Name(), stream, cfg)
				if r.Transfers == 0 {
					b.Fatal("no transfers")
				}
			}
		})
	}
}
