package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n, want int
	}{
		{5, 500}, {99, 500}, {100, 900}, {999, 900}, {1000, 990}, {1_000_000, 990},
	} {
		if got := tailPermille(tc.n); got != tc.want {
			t.Errorf("tailPermille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	durs := make([]int64, 1000) // 1..1000 us, shuffled order irrelevant
	for i := range durs {
		durs[i] = int64(1000-i) * 1000
	}
	got := summarize(durs)
	if got.n != 1000 || got.p50 != 500 || got.tailP != 99 || got.tail != 990 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 p99=990", got)
	}
	few := summarize([]int64{3000, 1000, 2000})
	if few.n != 3 || few.p50 != 2 || few.tailP != 50 || few.tail != 2 {
		t.Errorf("summarize of three = %+v, want the median as its own tail", few)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestPromDelta(t *testing.T) {
	const before = `# HELP avfi_transport_bytes_sent_total Bytes written.
# TYPE avfi_transport_bytes_sent_total counter
avfi_transport_bytes_sent_total 100
avfi_frames_encoded_total{kind="key"} 2
avfi_campaign_phase_seconds_sum{phase="open"} 0.5
avfi_campaign_phase_seconds_count{phase="open"} 4
`
	const after = `avfi_transport_bytes_sent_total 350
avfi_frames_encoded_total{kind="key"} 3
avfi_frames_encoded_total{kind="delta"} 40
avfi_campaign_phase_seconds_bucket{phase="open",le="+Inf"} 9
avfi_campaign_phase_seconds_sum{phase="open"} 1.25
avfi_campaign_phase_seconds_count{phase="open"} 9
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(b, a)
	want := map[string]float64{
		"avfi_transport_bytes_sent_total":                            250,
		`avfi_frames_encoded_total{kind="key"}`:                      1,
		`avfi_frames_encoded_total{kind="delta"}`:                    40, // absent before: counts from zero
		`avfi_campaign_phase_seconds_bucket{phase="open",le="+Inf"}`: 9,
		`avfi_campaign_phase_seconds_sum{phase="open"}`:              0.75,
		`avfi_campaign_phase_seconds_count{phase="open"}`:            5,
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("promDelta = %v, want %v", d, want)
	}
	if _, err := parseProm(strings.NewReader("avfi_x notanumber\n")); err == nil {
		t.Error("a malformed sample parsed")
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over an idle denominator = %g, want 0", r)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// slot [0,100] > observe [10,40] > render [15,35]; slot > act [50,90].
	spans := []span{
		{name: "slot", parent: -1, start: 0, end: 100},
		{name: "observe", parent: 0, start: 10, end: 40},
		{name: "render", parent: 1, start: 15, end: 35},
		{name: "act", parent: 0, start: 50, end: 90},
	}
	want := map[string]int64{"slot": 30, "observe": 10, "render": 20, "act": 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// The tracer nests by call order and keeps per-slot ids.
	tr := newTracer()
	outer := tr.begin("slot", 7)
	inner := tr.begin("observe", 7)
	tr.end(inner)
	tr.end(outer)
	again := tr.begin("slot", 8)
	tr.end(again)
	if len(tr.spans) != 3 || tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 ||
		tr.spans[again].parent != -1 || tr.spans[inner].slot != 7 || tr.spans[again].slot != 8 {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "train", "--seed", "1", "--trace", "1", "--seconds", "20"})
	want := []string{"--workload", "train", "--seed", "1", "--trace=1", "--seconds", "20"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %q, want %q", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-smoke"}); !reflect.DeepEqual(got, []string{"-trace", "-smoke"}) {
		t.Errorf("bare -trace rewritten: %q", got)
	}
}

// TestSmoke runs every workload, untraced and traced, on its shrunken grid:
// every code path and every output check, no measurement.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real episodes")
	}
	o := runOpts{seed: 1, seconds: 1, smoke: true, tmp: t.TempDir(), nproc: 2}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(name, trace, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, trace, err)
			}
			if len(out.failures) > 0 {
				t.Errorf("%s traced=%v: output checks failed: %v", name, trace, out.failures)
			}
			if out.attempted < 1 {
				t.Errorf("%s traced=%v: %d operations attempted", name, trace, out.attempted)
			}
			specs := endToEndMetrics
			if trace {
				specs = perLayerMetrics
			}
			// Exactly the contract's metrics, in its order, with its units.
			if len(out.metrics) != len(specs) {
				t.Fatalf("%s traced=%v: %d metrics, contract has %d", name, trace, len(out.metrics), len(specs))
			}
			for i, m := range out.metrics {
				if m.name != specs[i].name || m.unit != specs[i].unit {
					t.Errorf("%s traced=%v: metric %d is %s [%s], contract says %s [%s]",
						name, trace, i, m.name, m.unit, specs[i].name, specs[i].unit)
				}
			}
			if !trace {
				for _, m := range out.metrics {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, must be positive", name, m.name, m.value)
					}
				}
			}
		}
	}
	// A failed check fails every operation of the run.
	bad := &outcome{attempted: 7}
	bad.check("made-up", os.ErrInvalid)
	if res := bad.result(); res.Correct || res.Failed != 7 {
		t.Errorf("failed check reported as %+v", res)
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchEndToEnd `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json equal to the
// tables the program reports from. Set BENCH_WRITE_JSON=1 to rewrite it.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range campaignShapes {
		want.Workloads = append(want.Workloads, benchWorkload{s.name, s.why})
	}
	want.Workloads = append(want.Workloads, benchWorkload{train.name, train.why})
	for _, m := range endToEndMetrics {
		want.EndToEnd = append(want.EndToEnd, benchEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		want.PerLayer = append(want.PerLayer, benchLayer{m.name, m.unit, m.better})
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if os.Getenv("BENCH_WRITE_JSON") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run BENCH_WRITE_JSON=1 go test -run TestBenchmarkJSON .")
	}
}
