// Package telemetry is the fleet's flight recorder: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms), a Prometheus text exposition writer, a status/pprof HTTP
// endpoint, and a small leveled logger. Every AVFI process — orchestrator
// or standalone simulator worker — carries the same instruments, so a
// distributed campaign is inspectable per process while it runs.
//
// Collection is off by default and enabled with SetEnabled (or
// implicitly by Serve): a disabled instrument costs one atomic load and
// a predicted branch, and never allocates, which keeps the frame hot
// path at zero allocations whether telemetry is on or off.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every instrument write. Package-global rather than
// per-registry: instruments are reached from hot paths that cannot
// afford a pointer chase, and a process either observes itself or
// doesn't.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide. Enable
// before the workload starts; flipping mid-run leaves gauges that pair
// increments with decrements (in-flight counts) skewed.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on. Callers with
// multi-step observations (phase spans needing timestamps) check it
// once up front instead of paying for time.Now on every message.
func Enabled() bool { return enabled.Load() }

// A Counter is a monotonically increasing count. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error; they wrap).
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is an instantaneous signed value (queue depths, in-flight
// session counts). Safe for concurrent use, allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Add moves the value by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if enabled.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed buckets chosen at
// registration. Semantics mirror stats.Histogram: NaN observations are
// skipped and out-of-range values clamp into the end buckets (the last
// bucket is unbounded, so only the low end truly clamps). Buckets hold
// atomic counts and the sum is a CAS loop over float64 bits, so a
// snapshot taken during writes is internally consistent: the count is
// derived from the bucket counts, never from a separately raced total.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf bucket after
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent view of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending; final +Inf bucket implied
	Counts []uint64  // len(Bounds)+1: per-bucket (non-cumulative) counts
	Sum    float64
	Total  uint64
}

// Snapshot copies out bucket counts, sum, and total. Total is the sum
// of bucket counts, so it can never disagree with them.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Total += n
	}
	return s
}

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc, kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered time series: a metric family name plus an
// optional fixed label set.
type series struct {
	family string
	labels string // rendered `k="v",...` without braces; "" if unlabeled
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups the series sharing a metric name for exposition.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// A Registry owns a set of metric families. Registration is
// collision-checked and panics on misuse (duplicate series, kind
// mismatch within a family, invalid names): metric registration is
// centralized in this package at init time, so a collision is a build
// bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	seen     map[string]bool // family name + rendered labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, seen: map[string]bool{}}
}

// Default is the process-wide registry every AVFI instrument registers
// into; Serve exposes it when handed a nil registry.
var Default = NewRegistry()

// validName enforces the Prometheus metric/label name charset:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels turns alternating key, value pairs into the canonical
// `k="v",...` form, keys sorted so equivalent label sets collide.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := ""
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p.k + `="` + escapeLabel(p.v) + `"`
	}
	return out
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// register adds a series, creating its family on first sight.
func (r *Registry) register(name, help string, kind metricKind, s *series, labels []string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	s.family = name
	s.kind = kind
	s.labels = renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + s.labels + "}"
	if r.seen[key] {
		panic(fmt.Sprintf("telemetry: duplicate metric registration %s", key))
	}
	r.seen[key] = true
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. Labels are
// alternating key, value pairs fixed at registration.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{counter: c}, labels)
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{gauge: g}, labels)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGaugeFunc, &series{fn: fn}, labels)
}

// Histogram registers and returns a histogram series with the given
// ascending bucket upper bounds (a final +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %s has no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(name, help, kindHistogram, &series{hist: h}, labels)
	return h
}

// Names returns every registered series as "family{labels}" (braces
// omitted when unlabeled), sorted — the stable surface the golden-name
// test pins so renames are deliberate.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, f := range r.families {
		for _, s := range f.series {
			if s.labels == "" {
				out = append(out, f.name)
			} else {
				out = append(out, f.name+"{"+s.labels+"}")
			}
		}
	}
	sort.Strings(out)
	return out
}

// LatencyBuckets is the default span histogram layout: 100µs to 60s,
// roughly exponential, matching the spread between a pipe-transport
// episode phase and a pathological remote stall.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}
