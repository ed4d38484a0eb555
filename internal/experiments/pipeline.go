package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rmp/internal/client"
	"rmp/internal/page"
	"rmp/internal/server"
)

// This file measures the pipelining win: the same pageout workload
// run two ways against one live loopback server whose page service
// costs a fixed ServiceDelay (standing in for the ~ms of store latency
// a loaded 1996 rmemd showed). Issued one at a time, every pageout is
// a full round trip, so the delays serialize; the batch path keeps
// many requests in flight on the same session and the server overlaps
// their service, so the delays overlap too. The machine-readable
// result lands in BENCH_pipeline.json so CI can track the perf
// trajectory.

// pipelineServiceDelay models per-request service time at the server.
// It dominates the loopback RTT, which makes the serial-vs-pipelined
// ratio robust on any build machine.
const pipelineServiceDelay = 500 * time.Microsecond

// PipelineStats is the machine-readable benchmark result.
type PipelineStats struct {
	Pages           int     `json:"pages"`
	BatchSize       int     `json:"batch_size"`
	ServiceDelayUS  int64   `json:"service_delay_us"`
	SerialPagesPS   float64 `json:"serial_pages_per_sec"`
	PipelinePagesPS float64 `json:"pipelined_pages_per_sec"`
	Speedup         float64 `json:"pipelined_over_serial"`
}

// Pipeline runs the benchmark and writes BENCH_pipeline.json to the
// current directory.
func Pipeline() (*Table, error) {
	t, _, err := pipelineTo("BENCH_pipeline.json")
	return t, err
}

// pipelineTo is Pipeline with an explicit JSON destination ("" skips
// the file), returning the stats for assertions.
func pipelineTo(jsonPath string) (*Table, *PipelineStats, error) {
	srv := server.New(server.Config{
		Name:          "pipeline-srv",
		CapacityPages: 8192,
		OverflowFrac:  0.10,
		ServiceDelay:  pipelineServiceDelay,
	})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	const nPages = 256
	const batch = 64
	data := page.NewBuf()
	data.Fill(7)

	// Depth 1: one round trip per page.
	serial, err := pipelineSerial(addr, 0, nPages, data)
	if err != nil {
		return nil, nil, err
	}
	pipelined, err := pipelineBatched(addr, 10_000, nPages, batch, data)
	if err != nil {
		return nil, nil, err
	}

	pps := func(d time.Duration) float64 { return nPages / d.Seconds() }
	stats := &PipelineStats{
		Pages:           nPages,
		BatchSize:       batch,
		ServiceDelayUS:  pipelineServiceDelay.Microseconds(),
		SerialPagesPS:   pps(serial),
		PipelinePagesPS: pps(pipelined),
	}
	stats.Speedup = stats.PipelinePagesPS / stats.SerialPagesPS

	if jsonPath != "" {
		blob, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return nil, nil, err
		}
	}

	mbps := func(v float64) string {
		return fmt.Sprintf("%.1f", v*float64(page.Size)/(1<<20))
	}
	t := &Table{
		ID:     "PIPELINE",
		Title:  "Sequential vs pipelined pageout throughput (request multiplexing)",
		Header: []string{"mode", "pages", "elapsed", "pages/s", "MB/s", "vs serial"},
		Rows: [][]string{
			{"serial (depth 1)", fmt.Sprint(nPages), serial.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", stats.SerialPagesPS), mbps(stats.SerialPagesPS), "1.00x"},
			{fmt.Sprintf("pipelined (batch %d)", batch), fmt.Sprint(nPages),
				pipelined.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", stats.PipelinePagesPS), mbps(stats.PipelinePagesPS),
				fmt.Sprintf("%.2fx", stats.Speedup)},
		},
		Notes: []string{
			fmt.Sprintf("per-request service delay %v; loopback TCP transport", pipelineServiceDelay),
		},
	}
	if jsonPath != "" {
		t.Notes = append(t.Notes, "machine-readable result written to "+jsonPath)
	}
	return t, stats, nil
}

func pipelineSerial(addr string, keyBase uint64, n int, data page.Buf) (time.Duration, error) {
	conn, err := client.Dial(addr, "pipeline-bench", "")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := conn.PageOut(keyBase+uint64(i), data); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func pipelineBatched(addr string, keyBase uint64, n, batch int, data page.Buf) (time.Duration, error) {
	conn, err := client.Dial(addr, "pipeline-bench", "")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	keys := make([]uint64, batch)
	pages := make([]page.Buf, batch)
	for i := range pages {
		pages[i] = data
	}
	start := time.Now()
	for off := 0; off < n; off += batch {
		for i := range keys {
			keys[i] = keyBase + uint64(off+i)
		}
		if err := conn.PageOutBatch(keys, pages); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
