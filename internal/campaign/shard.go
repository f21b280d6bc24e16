// Sharded record logs: a campaign with Config.ShardSinks streams each
// aggregation shard to its own binary log (cmd/avfi names them
// records-<shard>.bin inside the -stream-records directory, one shard per
// engine slot). Records sort into a total, schedule-independent order, so
// the shards are a partition of the canonical log: MergeRecords over any
// sharding — including the degenerate single log — produces the same byte
// stream, and OpenRecordsPath streams a whole shard directory into
// Config.ResumeFrom exactly like one log file.

package campaign

import (
	"container/heap"
	"fmt"
	"io"

	"github.com/avfi/avfi/internal/metrics"
)

// BinaryShardLogName names shard i's binary record log inside a shard
// directory.
func BinaryShardLogName(i int) string { return fmt.Sprintf("records-%d.bin", i) }

// binShardLogPattern globs a directory's shard logs.
const binShardLogPattern = "records-*.bin"

// MergeRecords reads episode records from every binary source log — shard
// logs, single logs, or any mix — and writes the canonical record stream
// to w in the chosen output format: the union of all complete records,
// sorted into the campaign's deterministic (cell, mission, repetition)
// order. Truncated final frames are tolerated per source; a source that is
// not a binary log is an error naming it (by file name when the source is
// a file). Because the order is total over a campaign's episodes, merging
// a sharded run's logs and merging an equivalent single-sink run's log
// produce byte-identical output. It returns the number of records written.
//
// The merge is a k-way heap merge over per-source heads: each source is
// sorted into its own run, then the smallest head across runs streams
// straight to w, so the merged output is written incrementally and no
// combined slice of the union is ever built.
func MergeRecords(w io.Writer, format RecordFormat, sources ...io.Reader) (int, error) {
	runs := make(mergeHeap, 0, len(sources))
	for i, src := range sources {
		part, err := drainSource(newRecordReader(src, fmt.Sprintf("merge source %d", i)))
		if err != nil {
			return 0, err
		}
		if len(part) == 0 {
			continue
		}
		// Shard logs are in completion order; each run sorts independently
		// (smaller sorts than the union's) so the heads merge globally.
		sortRecords(part)
		runs = append(runs, part)
	}
	heap.Init(&runs)

	sink := format.NewRecordSink(w)
	n := 0
	for len(runs) > 0 {
		rec := runs[0][0]
		if len(runs[0]) == 1 {
			heap.Pop(&runs)
		} else {
			runs[0] = runs[0][1:]
			heap.Fix(&runs, 0)
		}
		if err := sink.Consume(rec); err != nil {
			return n, fmt.Errorf("campaign: merge: %w", err)
		}
		n++
	}
	if err := sink.Close(); err != nil {
		return n, fmt.Errorf("campaign: merge: %w", err)
	}
	return n, nil
}

// mergeHeap is a min-heap of sorted record runs, ordered by each run's
// head record in the canonical campaign order.
type mergeHeap [][]metrics.EpisodeRecord

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(a, b int) bool  { return recordLess(h[a][0], h[b][0]) }
func (h mergeHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.([]metrics.EpisodeRecord)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	run := old[n-1]
	*h = old[:n-1]
	return run
}
