package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of xs (the mean of the middle two for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank percentile of an ascending slice;
// the percentile is given per mille (990 is p99) so ranks are exact.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), permille), 1)-1]
}

// rank is the nearest rank of a per-mille percentile among n samples.
func rank(n, permille int) int { return (n*permille + 999) / 1000 }

// tailPermilles are the candidates of the tail rule, highest first. The
// list stops at p99 so a traced run's "_p99" metric keeps one meaning on
// every run long enough to support it.
var tailPermilles = []int{990, 900}

// tailPermille is the reporting rule for a timing: beside the median, the
// highest percentile that still has at least ten samples beyond it (so the
// figure is not one outlier); the median itself when the sample supports
// no tail.
func tailPermille(n int) int {
	for _, p := range tailPermilles {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 500
}

// timing summarises one span name's per-call durations.
type timing struct {
	n         int
	p50, tail float64 // microseconds
	tailP     float64 // which percentile tail is
}

func summarize(durNs []int64) timing {
	us := make([]float64, len(durNs))
	for i, d := range durNs {
		us[i] = float64(d) / 1e3
	}
	sort.Float64s(us)
	p := tailPermille(len(us))
	return timing{n: len(us), p50: percentile(us, 500), tail: percentile(us, p), tailP: float64(p) / 10}
}

// parseProm reads a Prometheus text exposition into series -> value, the
// series spelled exactly as exposed (name plus its {labels}, if any).
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces; the sample value follows the last one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// promDelta is what each series gained between two scrapes; a series absent
// from the first scrape counts from zero.
func promDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a/b, and 0 when the denominator saw no events — a layer the
// workload never exercised.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
