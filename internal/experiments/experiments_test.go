package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rmp/internal/apps"
	"rmp/internal/sim"
)

func TestMain(m *testing.M) {
	MaybeSpin() // child role for the Busy experiment
	os.Exit(m.Run())
}

// cell parses a numeric table cell.
func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "%"), 64)
	if err != nil {
		t.Fatalf("cell %d = %q not numeric: %v", i, row[i], err)
	}
	return v
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) != 7*24/4 {
		t.Fatalf("fig1 has %d rows", len(tab.Rows))
	}
	min := 1e9
	for _, r := range tab.Rows {
		free := cell(t, r, 2)
		if free < min {
			min = free
		}
		if free > 800 {
			t.Fatalf("free %v exceeds cluster total", free)
		}
	}
	if min < 300 {
		t.Fatalf("fig1 min free %v below the paper's 300 MB floor", min)
	}
}

func TestFig2Shapes(t *testing.T) {
	tab := Fig2()
	if len(tab.Rows) != 6 {
		t.Fatalf("fig2 has %d rows, want 6", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		app := r[0]
		none, plog, mirror, disk := cell(t, r, 3), cell(t, r, 4), cell(t, r, 5), cell(t, r, 6)
		if !(none < plog && plog < mirror) {
			t.Errorf("%s: want NONE < PLOG < MIRROR, got %v %v %v", app, none, plog, mirror)
		}
		if app == "MVEC" {
			if mirror <= disk {
				t.Errorf("MVEC: mirroring (%v) must lose to disk (%v) — the paper's anomaly", mirror, disk)
			}
			if none >= disk {
				t.Errorf("MVEC: NONE (%v) must still beat disk (%v)", none, disk)
			}
		} else if disk <= mirror {
			t.Errorf("%s: disk (%v) must be worst, mirror was %v", app, disk, mirror)
		}
		// GAUSS shows the paper's largest remote-memory win.
		if app == "GAUSS" {
			if disk/none < 1.5 {
				t.Errorf("GAUSS DISK/NONE = %.2f, want the paper's big win (>1.5)", disk/none)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3()
	var prevDisk, prevPlog float64
	for i, r := range tab.Rows {
		disk, plog := cell(t, r, 4), cell(t, r, 5)
		if i == 0 {
			// 17 MB fits: both systems identical, no paging.
			if disk != plog {
				t.Fatalf("at 17 MB disk %v != plog %v despite no paging", disk, plog)
			}
		} else {
			if disk <= prevDisk || plog <= prevPlog {
				t.Fatalf("row %d: completion time not rising with input", i)
			}
			if disk <= plog {
				t.Fatalf("row %d: disk (%v) not worse than parity logging (%v)", i, disk, plog)
			}
		}
		prevDisk, prevPlog = disk, plog
	}
	// The rise past the resident limit is sharp (paper: "rises sharply").
	first := cell(t, tab.Rows[0], 5)
	second := cell(t, tab.Rows[1], 5)
	if second < first*1.5 {
		t.Fatalf("paging onset not sharp: %v -> %v", first, second)
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4()
	for i, r := range tab.Rows {
		disk, eth, eth10, all := cell(t, r, 1), cell(t, r, 2), cell(t, r, 3), cell(t, r, 4)
		if i == 0 {
			continue // no paging at 17 MB
		}
		if !(all < eth10 && eth10 < eth && eth < disk) {
			t.Fatalf("row %d: want ALL < ETH*10 < ETH < DISK, got %v %v %v %v", i, all, eth10, eth, disk)
		}
		// ETHERNET*10 must sit much closer to ALL MEMORY than to
		// ETHERNET (the paper's "performs very close to ALL MEMORY").
		if (eth10 - all) > (eth-eth10)/2 {
			t.Fatalf("row %d: ETHERNET*10 (%v) not close to ALL MEMORY (%v) vs ETHERNET (%v)", i, eth10, all, eth)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	tab := Fig5()
	for _, r := range tab.Rows {
		app := r[0]
		none, wt, plog := cell(t, r, 1), cell(t, r, 2), cell(t, r, 3)
		if none > wt {
			t.Errorf("%s: write-through (%v) beat no-reliability (%v)", app, wt, none)
		}
		switch app {
		case "MVEC":
			// Pageout-only: the disk saturates; WT loses its edge
			// (paper: WT 25.49 vs PLOG 23.37 — WT is NOT clearly
			// better). Accept WT >= 0.95*PLOG.
			if wt < plog*0.95 {
				t.Errorf("MVEC: WT (%v) should not clearly beat PLOG (%v)", wt, plog)
			}
		default:
			// Read-write apps: WT beats PLOG at 10 Mbps (§4.7).
			if wt >= plog {
				t.Errorf("%s: WT (%v) should beat PLOG (%v) at 10 Mbps", app, wt, plog)
			}
		}
	}
}

func TestWTAblationCrossover(t *testing.T) {
	tab := WTAblation()
	// At 1x Ethernet WT wins; at 100x parity logging must win.
	if tab.Rows[0][4] != "WTHRU" {
		t.Fatalf("at 10 Mbps winner = %s, want WTHRU", tab.Rows[0][4])
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[4] != "PLOG" {
		t.Fatalf("at 100x winner = %s, want PLOG (§4.7's prediction)", last[4])
	}
}

func TestLoadedNetCollapse(t *testing.T) {
	tab := LoadedNet()
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	firstFFT := cell(t, first, 5)
	lastFFT := cell(t, last, 5)
	if lastFFT < 2*firstFFT {
		t.Fatalf("loaded Ethernet did not collapse paging: %v -> %v", firstFFT, lastFFT)
	}
}

func TestDecompMatchesPaper(t *testing.T) {
	tab := Decomp()
	find := func(q string) []string {
		for _, r := range tab.Rows {
			if r[0] == q {
				return r
			}
		}
		t.Fatalf("row %q missing", q)
		return nil
	}
	if r := find("predicted at ETHERNET*10"); true {
		d, err := time.ParseDuration(r[2])
		if err != nil {
			t.Fatalf("prediction %q: %v", r[2], err)
		}
		if diff := d - 83459*time.Millisecond; diff < -5*time.Millisecond || diff > 5*time.Millisecond {
			t.Fatalf("ETHERNET*10 prediction = %v, want ~83.459s", d)
		}
	}
	if r := find("page transfers"); r[2] != "5452" {
		t.Fatalf("transfers = %s", r[2])
	}
	r := find("paging fraction at ETHERNET*10")
	frac := cell(t, r, 2)
	if frac >= 17 {
		t.Fatalf("paging fraction %v%%, paper says < 17%%", frac)
	}
}

func TestLatencyLive(t *testing.T) {
	tab, err := Latency()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("latency table has %d rows", len(tab.Rows))
	}
	// Live loopback round trips must be sane (parse the durations).
	for _, r := range tab.Rows[5:] {
		d, err := time.ParseDuration(r[1])
		if err != nil {
			t.Fatalf("latency %q: %v", r[1], err)
		}
		if d <= 0 || d > time.Second {
			t.Fatalf("implausible live latency %v", d)
		}
	}
}

func TestRecoveryLive(t *testing.T) {
	tab, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("recovery table has %d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		policy, lost := r[0], r[4]
		if policy == "NO_RELIABILITY" {
			if lost == "0" {
				t.Errorf("NO_RELIABILITY lost no pages — crash not exercised")
			}
			continue
		}
		if lost != "0" {
			t.Errorf("%s lost %s pages after a single crash", policy, lost)
		}
		if r[5] != "256/256" {
			t.Errorf("%s: only %s pages readable", policy, r[5])
		}
	}
}

// TestGroupWidthAblation: 1+1/S transfers, full recovery at every S.
func TestGroupWidthAblation(t *testing.T) {
	tab, err := GroupWidthAblation()
	if err != nil {
		t.Fatal(err)
	}
	wantS := []float64{1, 2, 4, 8}
	for i, r := range tab.Rows {
		s := wantS[i]
		perOut := cell(t, r, 1)
		want := 1 + 1/s
		if perOut < want-0.01 || perOut > want+0.01 {
			t.Errorf("S=%v: transfers/out = %v, want %v", s, perOut, want)
		}
		if !strings.HasPrefix(r[5], "240/") || r[5] != "240/240" {
			t.Errorf("S=%v: readable = %s, want 240/240", s, r[5])
		}
	}
	// Parity memory shrinks with S.
	if cell(t, tab.Rows[0], 2) <= cell(t, tab.Rows[3], 2) {
		t.Error("parity pages did not shrink with S")
	}
}

// TestOverflowAblation: a looser budget holds more pages on the
// servers and never costs more; with the budget out of reach nothing is
// cleaned or patched and the raw 1 + 1/S reappears; and under uniform
// overwrites the cost stays at an in-place patch's two transfers however
// tight the budget, because at the budget overwrites patch.
func TestOverflowAblation(t *testing.T) {
	tab, err := OverflowAblation()
	if err != nil {
		t.Fatal(err)
	}
	const (
		colGC = iota + 2
		colPatches
		colTransfers
		colStored
	)
	var prev []string
	for i, r := range tab.Rows {
		if prev != nil && prev[0] == r[0] && cell(t, r, colStored) < cell(t, prev, colStored) {
			t.Errorf("row %d: stored/page fell (%s -> %s) with a looser budget", i, prev[colStored], r[colStored])
		}
		prev = r
		switch r[0] {
		case "churn":
			if r[1] == "100%" && (cell(t, r, colGC) != 0 || cell(t, r, colPatches) != 0 || cell(t, r, colTransfers) != 1.25) {
				t.Errorf("100%% budget: %s GC passes, %s patches, %s transfers/pageout; want 0, 0, 1.25", r[colGC], r[colPatches], r[colTransfers])
			}
		case "uniform":
			if got := cell(t, r, colTransfers); got > 2.05 {
				t.Errorf("uniform overwrites at budget %s: %v transfers/pageout, want at most a patch's 2", r[1], got)
			}
			if cell(t, r, colPatches) == 0 {
				t.Errorf("uniform overwrites at budget %s: nothing was patched in place", r[1])
			}
		default:
			t.Errorf("row %d: unknown workload %q", i, r[0])
		}
	}
}

func TestMultiClientDegradesWithClients(t *testing.T) {
	tab := MultiClient()
	var prev float64
	for i, r := range tab.Rows {
		est := cell(t, r, 5)
		if i > 0 && est <= prev {
			t.Fatalf("row %d: FFT estimate %v did not grow with client count", i, est)
		}
		prev = est
	}
	// One client must reproduce the unloaded baseline (paper: 130.76s).
	if first := cell(t, tab.Rows[0], 5); first < 125 || first > 136 {
		t.Fatalf("single-client estimate %v, want ~130.76", first)
	}
}

func TestAvailability(t *testing.T) {
	tab := Availability()
	minJobs := cell(t, tab.Rows[0], 1)
	maxJobs := cell(t, tab.Rows[1], 1)
	if minJobs < 10 {
		t.Errorf("min concurrent jobs %v — cluster idle memory implausibly low", minJobs)
	}
	if maxJobs <= minJobs {
		t.Errorf("no diurnal variation: min %v max %v", minJobs, maxJobs)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, with comma"}},
		Notes:  []string{"n"},
	}
	got := tab.CSV()
	want := "a,b\n1,\"two, with comma\"\n# n\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestBar(t *testing.T) {
	if bar(400, 800, 10) != "#####" {
		t.Fatalf("bar(400,800,10) = %q", bar(400, 800, 10))
	}
	if bar(900, 800, 10) != "##########" {
		t.Fatal("bar not clamped")
	}
	if bar(-1, 800, 10) != "" || bar(1, 0, 10) != "" {
		t.Fatal("bar degenerate cases")
	}
}

// TestUserTimeCalibrationSane: calibrated compute times are positive
// and FFT's scales superlinearly with size.
func TestUserTimeCalibrationSane(t *testing.T) {
	for _, app := range []string{"GAUSS", "QSORT", "FFT", "MVEC", "FILTER", "CC"} {
		if UserTime(app) <= 0 {
			t.Errorf("%s: non-positive utime", app)
		}
	}
	small := FFTUserTime(1 << 18)
	big := FFTUserTime(1 << 20)
	if big <= small {
		t.Fatal("FFT utime does not grow with size")
	}
	anchor := FFTUserTime(786432)
	if d := anchor - 66138*time.Millisecond; d < -time.Second || d > time.Second {
		t.Fatalf("FFT utime anchor = %v, want ~66.138s", anchor)
	}
}

// TestFig2FaultCountsPlausible: paging volumes must be in the
// thousands (the paper's regime), not the hundreds of thousands that
// naive trace organizations produce under LRU.
func TestFig2FaultCountsPlausible(t *testing.T) {
	for _, w := range apps.All(1.0) {
		ins, outs := sim.CountFaults(w, ResidentBytes)
		total := ins + outs
		if total == 0 {
			t.Errorf("%s: no paging at paper scale", w.Name())
		}
		if total > 60_000 {
			t.Errorf("%s: %d faults — pathological for the 1996 regime", w.Name(), total)
		}
	}
}

// TestRSBenchOverhead: the acceptance bar for erasure coding —
// RS(4,2) must store at most 0.6x of what mirroring costs at the same
// 2-crash tolerance, every policy row must be present with sane
// amplification, and the JSON artifact must round-trip.
func TestRSBenchOverhead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_rs.json")
	tab, stats, err := rsBenchTo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rs table has %d rows, want 6", len(tab.Rows))
	}
	if stats.RS42OverMirrorTol2 > 0.6 {
		t.Fatalf("RS(4,2) storage = %.2fx of equal-tolerance mirroring, want <= 0.6\n%s",
			stats.RS42OverMirrorTol2, tab)
	}
	byPolicy := map[string]RSPolicyBench{}
	for _, r := range stats.Policies {
		byPolicy[r.Policy] = r
	}
	// Steady-state amplification of each policy, with slack for the
	// open-group tail and re-dials.
	wantAmp := map[string]struct{ lo, hi float64 }{
		"NO_RELIABILITY": {0.99, 1.05},
		"MIRRORING":      {1.99, 2.10},
		"PARITY":         {1.99, 2.20}, // stored/page is lower; transfers are 2
		"RS":             {1.45, 1.60},
	}
	for pol, want := range wantAmp {
		r, ok := byPolicy[pol]
		if !ok {
			t.Fatalf("policy %s missing from the benchmark", pol)
		}
		if r.NetTransfersPerPage < want.lo || r.NetTransfersPerPage > want.hi {
			t.Errorf("%s: %.2f net transfers/page, want %.2f..%.2f",
				pol, r.NetTransfersPerPage, want.lo, want.hi)
		}
	}
	if rs := byPolicy["RS"]; rs.StoredPagesPerPage < 1.45 || rs.StoredPagesPerPage > 1.60 {
		t.Errorf("RS stored/page = %.2f, want ~1.5", rs.StoredPagesPerPage)
	}
	if mir := byPolicy["MIRRORING"]; mir.StoredPagesPerPage < 1.99 || mir.StoredPagesPerPage > 2.10 {
		t.Errorf("MIRROR stored/page = %.2f, want ~2.0", mir.StoredPagesPerPage)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RSBenchStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("BENCH_rs.json: %v", err)
	}
	if back.RS42OverMirrorTol2 != stats.RS42OverMirrorTol2 || back.Pages != stats.Pages {
		t.Fatal("JSON artifact does not match the in-memory stats")
	}
}
