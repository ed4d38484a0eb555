package apps

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmp/internal/blockdev"
	"rmp/internal/page"
	"rmp/internal/vm"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden from the current runs")

// seqDevice is a MemDevice that folds the (op, block) of every read and
// write into an FNV-64 and counts the calls (Run and Flush make no
// others).
type seqDevice struct {
	*blockdev.MemDevice
	seq   hash.Hash64
	calls int
}

func (d *seqDevice) record(op byte, bn int64) {
	var b [9]byte
	b[0] = op
	binary.LittleEndian.PutUint64(b[1:], uint64(bn))
	d.seq.Write(b[:])
	d.calls++
}

func (d *seqDevice) ReadBlock(bn int64, buf page.Buf) error {
	d.record('r', bn)
	return d.MemDevice.ReadBlock(bn, buf)
}

func (d *seqDevice) WriteBlock(bn int64, data page.Buf) error {
	d.record('w', bn)
	return d.MemDevice.WriteBlock(bn, data)
}

// runLine runs w over a recording device with 1/4 of its footprint
// resident, flushes, and describes the run in one line: the checksum,
// the paging counters and the device-call sequence. Accesses is left
// out: how many calls an app makes into vm is the app's business; what
// reaches the device is not.
func runLine(w Workload) (string, error) {
	dev := &seqDevice{MemDevice: blockdev.NewMemDevice(), seq: fnv.New64a()}
	s, err := vm.New(w.Bytes(), w.Bytes()/4, dev)
	if err != nil {
		return "", err
	}
	sum, err := w.Run(s)
	if err == nil {
		err = s.Flush()
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", w.Name(), err)
	}
	st := s.Stats()
	return fmt.Sprintf("%s/%dB sum=%d faults=%d pageins=%d pageouts=%d evictions=%d calls=%d seq=%016x",
		w.Name(), w.Bytes(), sum, st.Faults, st.PageIns, st.PageOuts, st.Evictions, dev.calls, dev.seq.Sum64()), nil
}

// TestRunFaultSequenceGolden pins what every app's Run sends to its
// backing device, call by call: each test-sized app and the benchmark's
// GAUSS(400), at 1/4 residency. TestTraceMatchesRun checks counts within
// a tolerance; this says a change to an app or to vm moved no device
// call at all. After a change meant to move them, regenerate with `make
// golden` (go test -run TestRunFaultSequenceGolden -update) and review
// the diff.
func TestRunFaultSequenceGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range append(smallAll(), NewGauss(400)) {
		line, err := runLine(w)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(line + "\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("device-call sequence moved; got:\n%s\nwant (%s):\n%s", got, path, want)
	}
}
