package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"rmp/internal/page"
	"rmp/internal/wire"
)

// tiny is the smoke test's scale: a 256-page working set, a 64×64
// matrix, 4 ms rounds, one crash cycle and 20 round trips a
// reference-clock measurement.
var tiny = params{seed: 7, seconds: 0.2, pages: 256, gaussN: 64, cycles: 1, trips: 20}

func checkMetrics(t *testing.T, got map[string]Metric, want []metricDef, nonZero bool) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v is not finite", d.name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("%s: 0, and the contract wants end-to-end metrics that never are", d.name)
		}
	}
}

func defsOf(declared []declaredMetric) []metricDef {
	out := make([]metricDef, len(declared))
	for i, d := range declared {
		out[i] = metricDef{d.Name, d.Unit}
	}
	return out
}

// TestSmoke runs every workload through both passes at tiny scale and
// holds the emitted metrics to BENCHMARK.json. The crash workload's
// stall is a 2 s timer wait, so the subtests run in parallel.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if emitted := len(perLayerDefs) + len(layerDriveDefs); len(bf.PerLayer) != emitted {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the bench emits %d", len(bf.PerLayer), emitted)
	}
	// BENCHMARK.json names the workloads the contract's time limit has
	// room for; the bench runs those and the rest of the table.
	for _, dw := range bf.Workloads {
		if w := workloadByName(dw.Name); w == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the bench", dw.Name)
		} else if dw.Why != w.why {
			t.Errorf("%s: BENCHMARK.json and the bench give different reasons", w.name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name+"/end_to_end", func(t *testing.T) {
			t.Parallel()
			m, err := execute(w, tiny, tiny.roundsFor(w), w.callers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%d of %d operations failed", m.failed, m.attempted)
			}
			metrics := endToEnd(m)
			checkMetrics(t, metrics, defsOf(bf.EndToEnd), true)
			for _, d := range reportedDefs {
				if d.name == metricCrashStall && w.kind != kindCrash {
					if _, ok := metrics[d.name]; ok {
						t.Errorf("%s emitted by a workload without a crash", d.name)
					}
					continue
				}
				checkMetrics(t, metrics, []metricDef{d}, d.name != metricFailRatio)
			}
			// A result compared with itself is the same everywhere.
			rep := report{Workloads: []workloadReport{{Name: w.name, Metrics: metrics}}}
			rows, details, bad := compareReports(bf, rep, rep)
			if bad || len(details) != 0 || len(rows) != 2 {
				t.Errorf("self-compare: bad=%v rows=%q details=%q", bad, rows, details)
			}
		})
		t.Run(w.name+"/per_layer", func(t *testing.T) {
			t.Parallel()
			tr := newTracer()
			metrics, m, err := perLayer(w, tiny, tr, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%d of %d operations failed", m.failed, m.attempted)
			}
			checkMetrics(t, metrics, defsOf(bf.PerLayer), false)
			for _, name := range []string{"client.pagein_self_us", "transport.pagein_self_us", "server.pagein_service_us", "transport.bytes_per_page"} {
				if metrics[name].Value <= 0 {
					t.Errorf("%s = %v: the traced run recorded no such spans", name, metrics[name].Value)
				}
			}
			if err := tr.writeFile(filepath.Join(t.TempDir(), "trace.json"), w.name); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUntimedFailuresCount: a failure outside the timed rounds still
// reaches failed, and so the exit code.
func TestUntimedFailuresCount(t *testing.T) {
	m := &measured{rounds: []round{{ops: 100}}}
	m.addUntimed(round{ops: 10, failed: 2, ins: latencies{1}, outs: latencies{1}})
	m.count()
	if m.attempted != 110 || m.failed != 2 {
		t.Errorf("attempted %d failed %d, want 110 and 2", m.attempted, m.failed)
	}
	if u := m.untimed[0]; u.ins != nil || u.outs != nil {
		t.Error("an untimed interval kept its latency samples")
	}
}

// TestCompareVerdicts pins the rule -compare applies.
func TestCompareVerdicts(t *testing.T) {
	lower := declaredMetric{Name: "x", Better: "lower", Bound: 0.10}
	higher := declaredMetric{Name: "x", Better: "higher", Bound: 0.10}
	quiet := func(v float64) Metric { return Metric{Value: v, Spread: 0.05, Rounds: 25} }
	noisy := func(v float64) Metric { return Metric{Value: v, Spread: 1.0, Rounds: 25} }
	for _, c := range []struct {
		d        declaredMetric
		old, new Metric
		want     string
	}{
		{lower, quiet(100), quiet(105), "same"},
		{lower, quiet(100), quiet(120), "worse"},
		{lower, quiet(100), quiet(80), "better"},
		{higher, quiet(100), quiet(80), "worse"},
		{higher, quiet(100), quiet(120), "better"},
		{lower, noisy(100), noisy(105), "unresolved"},
		{lower, noisy(100), noisy(115), "unresolved"},
		{lower, noisy(100), noisy(200), "worse"},
	} {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s-is-better %v -> %v (spread %v): %s, want %s", c.d.Better, c.old.Value, c.new.Value, c.old.Spread, got, c.want)
		}
	}
}

// TestCompareRefusesMismatch: numbers taken under another seed, length
// or pass are not compared.
func TestCompareRefusesMismatch(t *testing.T) {
	write := func(name string, r report) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := report{Seed: 1, Seconds: 10, Pass: "end_to_end"}
	old := write("old.json", base)
	if code := compareFiles(old, old); code != 0 {
		t.Errorf("a file against itself: exit %d", code)
	}
	for _, other := range []report{
		{Seed: 2, Seconds: 10, Pass: "end_to_end"},
		{Seed: 1, Seconds: 5, Pass: "end_to_end"},
		{Seed: 1, Seconds: 10, Pass: "per_layer"},
	} {
		if code := compareFiles(old, write("new.json", other)); code != 2 {
			t.Errorf("%+v against %+v: exit %d, want 2", other, base, code)
		}
	}
}

// TestFrameParser holds the tracer's reading of frame headers to what
// the wire package writes, fed whole and a byte at a time.
func TestFrameParser(t *testing.T) {
	data := page.NewBuf()
	var stream []byte
	var err error
	for _, m := range []*wire.Msg{
		{Type: wire.THello, Host: "bench"}, // v1: no request id, not reported
		{Version: wire.Version2, ID: 5, Type: wire.TPageOut, Key: 9, Data: data},
		{Version: wire.Version2, ID: 6, Type: wire.TPageIn, Key: 9},
		{Version: wire.Version2, ID: 7, Type: wire.TPageOutAck},
	} {
		if stream, err = wire.AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{len(stream), 1, 7} {
		var p frameParser
		var got []uint32
		for off := 0; off < len(stream); off += chunk {
			p.feed(stream[off:min(off+chunk, len(stream))], int64(off), func(req uint32, _ int64) { got = append(got, req) })
		}
		if !bytes.Equal(u32bytes(got), u32bytes([]uint32{5, 6, 7})) {
			t.Errorf("chunks of %d: saw requests %v, want [5 6 7]", chunk, got)
		}
	}
}

func u32bytes(v []uint32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, x := range v {
		out = append(out, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	}
	return out
}

// TestPayload checks the generator's contract: a pure function of its
// tag, different across versions, and about half compressible.
func TestPayload(t *testing.T) {
	a, b, c := page.NewBuf(), page.NewBuf(), page.NewBuf()
	fillPayload(a, payloadTag(1, 3, 1))
	fillPayload(b, payloadTag(1, 3, 1))
	fillPayload(c, payloadTag(1, 3, 2))
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Fatal("payload is not a function of (seed, id, version)")
	}
	if !bytes.Equal(a[page.Size/2:page.Size/2+64], a[page.Size-64:]) {
		t.Error("second half is not a repeated 64-byte pattern")
	}
}
