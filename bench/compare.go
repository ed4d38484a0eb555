package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the bench reads: the
// declared metrics, their direction and their regression bounds.
type benchmarkFile struct {
	RunSeconds float64                      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []declaredMetric             `json:"end_to_end"`
	PerLayer   []declaredMetric             `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile finds BENCHMARK.json from the repository root (how
// the benchmark is run) or from this directory (how go test runs).
func readBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(blob, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// verdict compares one metric of one workload: the relative change,
// signed so that positive is worse, against the metric's bound and
// against the noise of the two sides' own rounds. A value stands for n
// rounds, so its noise is taken as their interquartile spread over √n,
// and the noise of a difference as the two sides' combined in
// quadrature; a difference or an agreement that this noise could hide
// is unresolved.
func verdict(d declaredMetric, old, new Metric) (string, float64) {
	if old.Value == new.Value {
		return "same", 0
	}
	if old.Value == 0 {
		return "unresolved", 0
	}
	worse := (new.Value - old.Value) / old.Value
	if d.Better == "higher" {
		worse = -worse
	}
	noise := math.Hypot(old.noise(), new.noise())
	switch {
	case worse > d.Bound && worse > noise:
		return "worse", worse
	case worse < -d.Bound && -worse > noise:
		return "better", worse
	case noise > d.Bound:
		return "unresolved", worse
	}
	return "same", worse
}

func (m Metric) noise() float64 {
	if m.Rounds < 2 {
		return 0
	}
	return m.Spread / math.Sqrt(float64(m.Rounds))
}

// compareFiles prints one row of verdicts per workload and returns the
// process exit code: 1 on any worse metric or higher fail_ratio.
func compareFiles(oldPath, newPath string) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var reports [2]report
	for i, path := range []string{oldPath, newPath} {
		blob, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(blob, &reports[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	// Seconds scales warm-up and round length, and the seed makes the
	// inputs: numbers taken under different ones do not compare.
	if o, n := reports[0], reports[1]; o.Pass != "end_to_end" || n.Pass != o.Pass || n.Seed != o.Seed || n.Seconds != o.Seconds {
		fmt.Fprintf(os.Stderr, "bench: not comparable: %s is pass %q seed %d seconds %g, %s is pass %q seed %d seconds %g; both must be end_to_end with one seed and one length\n",
			oldPath, o.Pass, o.Seed, o.Seconds, newPath, n.Pass, n.Seed, n.Seconds)
		return 2
	}
	rows, details, bad := compareReports(bf, reports[0], reports[1])
	fmt.Println(strings.Join(rows, "\n"))
	if len(details) > 0 {
		fmt.Println()
		fmt.Println(strings.Join(details, "\n"))
	}
	if bad {
		return 1
	}
	return 0
}

func compareReports(bf *benchmarkFile, old, new report) (rows, details []string, bad bool) {
	declared := bf.EndToEnd
	header := fmt.Sprintf("%-18s", "workload")
	width := func(d declaredMetric) int { return max(len(d.Name), len("unresolved")) }
	for _, d := range declared {
		header += fmt.Sprintf(" %-*s", width(d), d.Name)
	}
	rows = append(rows, header+" "+metricFailRatio)

	oldBy := make(map[string]workloadReport)
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	for _, nw := range new.Workloads {
		ow, ok := oldBy[nw.Name]
		if !ok {
			continue
		}
		row := fmt.Sprintf("%-18s", nw.Name)
		for _, d := range declared {
			om, ok1 := ow.Metrics[d.Name]
			nm, ok2 := nw.Metrics[d.Name]
			cell := "-"
			if ok1 && ok2 {
				var change float64
				cell, change = verdict(d, om, nm)
				if cell != "same" {
					details = append(details, fmt.Sprintf("%s %s %s: %.4g -> %.4g %s (%+.1f%% towards worse, bound %.0f%%, noise %.1f%% / %.1f%%)",
						nw.Name, d.Name, cell, om.Value, nm.Value, d.Unit, 100*change, 100*d.Bound, 100*om.noise(), 100*nm.noise()))
				}
				bad = bad || cell == "worse"
			}
			row += fmt.Sprintf(" %-*s", width(d), cell)
		}
		cell := "same"
		if of, nf := ow.Metrics[metricFailRatio].Value, nw.Metrics[metricFailRatio].Value; nf > of {
			cell, bad = "worse", true
			details = append(details, fmt.Sprintf("%s %s worse: %g -> %g", nw.Name, metricFailRatio, of, nf))
		}
		rows = append(rows, row+" "+cell)
	}
	return rows, details, bad
}
