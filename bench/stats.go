package main

import (
	"math"
	"sort"
)

// Metric is one reported number. A value taken over rounds is the
// rounds' median. Best, beside it, is the rounds' 5th percentile on the
// metric's better side (with 50 rounds, the third-fastest): interference
// from outside the process only ever makes a round worse, so Best says
// what the undisturbed machine does and is steadier from run to run
// (README.md has the numbers), but a change that slows most rounds and
// spares a few does not move it, so it is never the verdict. Rounds is
// how many rounds, Spread their interquartile range as a share of their
// median — the statistic the benchmark contract applies across runs,
// applied across rounds. Samples, on a percentile, is how many
// operations each round's percentile was taken over.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Best    float64 `json:"best,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
	Rounds  int     `json:"rounds,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// quantile returns the q-quantile (0..1) of an ascending slice by the
// nearest-rank rule; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile is the exclusive-method quartile (as Python's
// statistics.quantiles gives it) of an ascending slice: k is 1 or 3.
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k*(n+1))/4 - 1 // 0-based position
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return sorted[0]
	case lo >= n-1:
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// bestShare is the percentile, counted from the better end, that
// Metric.Best reports.
const bestShare = 0.05

// overRounds folds per-round values into a Metric: their median, with
// the bestShare percentile from the better end and the interquartile
// spread beside it.
func overRounds(vals []float64, unit string, higherIsBetter bool) Metric {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := Metric{Unit: unit, Rounds: len(s)}
	if len(s) == 0 {
		return m
	}
	k := int(math.Round(bestShare * float64(len(s)-1)))
	if higherIsBetter {
		k = len(s) - 1 - k
	}
	m.Value, m.Best = median(s), s[k]
	if len(s) > 1 && m.Value != 0 {
		m.Spread = (quartile(s, 3) - quartile(s, 1)) / math.Abs(m.Value)
	}
	return m
}

// latencies is one round's samples of one operation type, in ns.
type latencies []int64

func (l latencies) quantileMicros(q float64) float64 {
	s := make([]float64, len(l))
	for i, v := range l {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return quantile(s, q) / 1e3
}
