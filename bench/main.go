// Command bench is the end-to-end benchmark of the live pager: six
// workloads, each a closed loop of page faults against in-process
// servers over loopback TCP, measured end to end and layer by layer.
// README.md in this directory describes the workloads, the metrics and
// how the numbers are taken; BENCHMARK.json at the repository root
// declares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	// Budget of one isolated layer drive: the full pass (-layers), and
	// the short one every per-layer run includes.
	layerBudget      = time.Second
	layerBudgetShort = 60 * time.Millisecond
)

// env stamps every output with the machine and configuration the
// numbers were taken on.
type env struct {
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	CPU       string  `json:"cpu_model"`
	Kernel    string  `json:"kernel"`
	Commit    string  `json:"git_commit"`
	Transport string  `json:"transport"`
	Load      string  `json:"load"`
	Rounds    int     `json:"rounds"`
	RoundS    float64 `json:"round_seconds"`
	WarmupS   float64 `json:"warmup_seconds"`
}

// endToEndRounds is how many timed rounds an untraced fault stream
// does; crash_plog does p.cycles cycles of crashRounds instead, and
// app_gauss as many repetitions as fit the timed phase.
const endToEndRounds = 50

// roundsFor is the rounds argument of w's end-to-end execution.
func (p params) roundsFor(w *workload) int {
	switch w.kind {
	case kindCrash:
		return p.cycles
	case kindGauss:
		return 0
	}
	return endToEndRounds
}

func stamp(p params, rounds int) env {
	e := env{
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		CPU:       "unknown",
		Kernel:    "unknown",
		Commit:    gitCommit(),
		Transport: "tcp-loopback",
		Load:      "closed loop, one caller per thread",
		Rounds:    rounds,
		RoundS:    p.dur(roundShare).Seconds(),
		WarmupS:   p.dur(warmupShare).Seconds(),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	return e
}

// gitCommit reads HEAD from the enclosing repository without running
// git; the contract's checkouts are not repositories, so "unknown" is
// a normal answer.
func gitCommit() string {
	dir, err := os.Getwd()
	for err == nil {
		head, herr := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if herr == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if blob, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(blob))
				}
				return name
			}
			return ref
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "unknown"
}

// report is the JSON written beside the text output: the same
// numbers.
type report struct {
	Env       env               `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Pass      string            `json:"pass"` // end_to_end, per_layer or layers
	Workloads []workloadReport  `json:"workloads,omitempty"`
	Layers    map[string]Metric `json:"layers,omitempty"`
}

type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// GOMAXPROCS is one per caller. A closed loop of one caller has one
	// step runnable at a time, so a second processor adds only wake-ups
	// across CPUs, and on a few shared cores those are the noisiest part
	// of a fault: with two, ten runs of fault_none beside two busy
	// neighbours spread by 35 % of their median, with one by 4 %.
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
}

// runWorkload executes one workload for one pass and prints its
// metrics: the ones bf declares for the pass, then on the end-to-end
// pass the reported-only ones the workload has. outDir, on the per-layer
// pass, receives the traced run's spans.
func runWorkload(w *workload, p params, bf *benchmarkFile, trace bool, outDir string) (workloadReport, error) {
	wr := workloadReport{Name: w.name, Why: w.why, GOMAXPROCS: w.callers}
	runtime.GOMAXPROCS(w.callers)
	declared := bf.EndToEnd
	if trace {
		tr := newTracer()
		metrics, m, err := perLayer(w, p, tr, layerBudgetShort)
		if err != nil {
			return wr, err
		}
		if err := tr.writeFile(filepath.Join(outDir, "trace_"+w.name+".json"), w.name); err != nil {
			return wr, err
		}
		wr.Metrics, wr.Attempted, wr.Failed = metrics, m.attempted, m.failed
		declared = bf.PerLayer
	} else {
		m, err := execute(w, p, p.roundsFor(w), w.callers, nil)
		if err != nil {
			return wr, err
		}
		wr.Metrics, wr.Attempted, wr.Failed = endToEnd(m), m.attempted, m.failed
	}
	wr.Correct = wr.Failed == 0
	for _, d := range declared {
		printMetric(w.name, d.Name, wr.Metrics[d.Name])
	}
	if !trace {
		for _, d := range reportedDefs {
			if m, ok := wr.Metrics[d.name]; ok {
				printMetric(w.name, d.name, m)
			}
		}
	}
	return wr, nil
}

func printMetric(scope, name string, m Metric) {
	line := fmt.Sprintf("%-18s %-30s %14.4f %-6s", scope, name, m.Value, m.Unit)
	if m.Rounds > 0 {
		line += fmt.Sprintf(" best %.4f spread %.3f over %d rounds", m.Best, m.Spread, m.Rounds)
	}
	if m.Samples > 0 {
		line += fmt.Sprintf(" of %d samples", m.Samples)
	}
	fmt.Println(strings.TrimRight(line, " "))
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all six)")
		seed         = flag.Uint64("seed", defaultSeed, "seed of every generator: op streams, payloads, crash instants")
		seconds      = flag.Float64("seconds", 0, "timed phase of one workload, seconds; the benchmark contract passes BENCHMARK.json's run_seconds, which is also the default")
		trace        = flag.Int("trace", 0, "1: the per-layer pass (traced run, counts, short layer drives) instead of the end-to-end pass")
		layers       = flag.Bool("layers", false, "run only the isolated layer drives, at full length")
		compare      = flag.Bool("compare", false, "compare two end_to_end.json files: bench -compare old.json new.json")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for the JSON outputs")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	p := params{seed: *seed, seconds: *seconds, pages: defaultPages, gaussN: defaultGaussN, cycles: crashCycles(*seconds), trips: defaultRefTrips}

	if *layers {
		runtime.GOMAXPROCS(1) // every drive is one caller
		rep := report{Env: stamp(p, 0), Seed: p.seed, Seconds: p.seconds, Pass: "layers", Layers: layerDrives(layerBudget)}
		for _, d := range layerDriveDefs {
			printMetric("layers", d.name, rep.Layers[d.name])
		}
		if err := writeJSON(filepath.Join(*outDir, "layers.json"), rep); err != nil {
			fatal(err)
		}
		return
	}

	run := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		run = []*workload{w}
	}
	pass, rounds := "end_to_end", endToEndRounds
	if *trace == 1 {
		pass, rounds = "per_layer", traceRounds
	}
	rep := report{Env: stamp(p, rounds), Seed: p.seed, Seconds: p.seconds, Pass: pass}
	fmt.Printf("# %s pass, seed %d, %gs timed per workload, transport %s, %s, %s, GOMAXPROCS one per caller\n",
		pass, p.seed, p.seconds, rep.Env.Transport, rep.Env.GoVersion, rep.Env.CPU)
	correct := true
	for _, w := range run {
		wr, err := runWorkload(w, p, bf, *trace == 1, *outDir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		correct = correct && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := writeJSON(filepath.Join(*outDir, pass+".json"), rep); err != nil {
		fatal(err)
	}
	if !correct {
		fatal(fmt.Errorf("operations failed or returned wrong bytes"))
	}
	if *workloadName != "" {
		declared := bf.EndToEnd
		if *trace == 1 {
			declared = bf.PerLayer
		}
		printContractLine(rep.Workloads[0], declared)
	}
}

// printContractLine prints the one JSON object the benchmark contract
// reads from the last line of standard output: exactly the metrics
// BENCHMARK.json declares for the pass.
func printContractLine(wr workloadReport, declared []declaredMetric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	for _, d := range declared {
		metrics[d.Name] = value{wr.Metrics[d.Name].Value, d.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
