package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. parent indexes the span that caused it (-1 for a root); spans
// of one episode share its slot id.
type span struct {
	name       string
	slot       int32
	parent     int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory; nothing is written until the run ends.
// One goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, slot int) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, slot: int32(slot), parent: parent})
	t.open = append(t.open, id)
	t.spans[id].start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered[i]
	}
	return out
}

// durations groups span durations by name, in recording order.
func durations(spans []span) map[string][]int64 {
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], s.end-s.start)
	}
	return out
}

// writeSpans dumps the spans as tab-separated text.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "index\tparent\tslot\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.slot, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
