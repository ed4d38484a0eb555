// Package experiments regenerates every table and figure of the
// paper's evaluation (§4), printing rows comparable to the published
// ones. Figures 2-5 run the application page traces through the
// calibrated testbed model (internal/sim); the latency, busy-server
// and recovery experiments run the real TCP system on the loopback;
// the loaded-Ethernet experiment uses the CSMA/CD simulator.
//
// Absolute 1996 times cannot be reproduced on modern hardware, so
// each table carries the paper's published values next to ours where
// the paper reports them, and EXPERIMENTS.md discusses the shapes.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header + rows; notes as
// trailing comment lines), for plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Header)
	for _, row := range t.Rows {
		w.Write(row)
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// bar renders v/max as a fixed-width ASCII bar for in-table
// sparklines.
func bar(v, max float64, width int) string {
	if max <= 0 || v < 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// secs formats seconds with 2 decimals.
func secs(s float64) string { return fmt.Sprintf("%.2f", s) }

// ratio formats a/b as "x.xx".
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// BenchEnv stamps a BENCH_*.json artifact with the machine and
// toolchain its numbers were taken on: a committed number that does
// not say where it came from cannot be compared with the next one.
type BenchEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Date       string `json:"date"`
}

// writeBenchJSON stamps *env — the Env field of stats — and writes
// stats to path as indented JSON; an empty path writes nothing.
func writeBenchJSON(path string, env *BenchEnv, stats any) error {
	if path == "" {
		return nil
	}
	*env = BenchEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Date:       time.Now().UTC().Format("2006-01-02"),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	blob, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
