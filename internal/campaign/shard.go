// Sharded record logs: a campaign with Config.ShardSinks streams each
// aggregation shard to its own log file (cmd/avfi names them
// records-<shard>.bin — or .jsonl under -record-format jsonl — inside the
// -stream-records directory, one shard per engine slot). Records sort into
// a total, schedule-independent order, so the shards are a partition of
// the canonical log: MergeRecordsJSONL over any sharding — including the
// degenerate single log — produces the same byte stream, and
// OpenRecordsPath streams a whole shard directory into Config.ResumeFrom
// exactly like one log file. Both formats are read transparently (auto-detected
// per file) and may coexist in one directory.

package campaign

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/avfi/avfi/internal/metrics"
)

// ShardLogName names shard i's JSONL record log inside a shard directory.
func ShardLogName(i int) string { return fmt.Sprintf("records-%d.jsonl", i) }

// BinaryShardLogName names shard i's binary record log inside a shard
// directory.
func BinaryShardLogName(i int) string { return fmt.Sprintf("records-%d.bin", i) }

// shardLogPattern and binShardLogPattern glob a directory's shard logs,
// one pattern per format.
const (
	shardLogPattern    = "records-*.jsonl"
	binShardLogPattern = "records-*.bin"
)

// LoadRecordsDir reads every shard log (records-*.jsonl and records-*.bin)
// in dir and returns the union of their records in the canonical campaign
// order. Each shard tolerates a truncated final line or frame (the
// signature of a crash mid-write), exactly like LoadRecordsJSONL on a
// single log. A directory with no shard logs returns no records —
// indistinguishable from an empty log, so a first run against a fresh
// directory resumes from nothing.
func LoadRecordsDir(dir string) ([]metrics.EpisodeRecord, error) {
	paths, err := shardLogPaths(dir)
	if err != nil {
		return nil, err
	}
	var recs []metrics.EpisodeRecord
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: %w", err)
		}
		shard, err := LoadRecords(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("campaign: resume: %s: %w", filepath.Base(path), unwrapResume(err))
		}
		recs = append(recs, shard...)
	}
	sortRecords(recs)
	return recs, nil
}

// MergeRecordsJSONL reads episode records from every source log — shard
// logs, single logs, or any mix of formats — and writes the canonical
// JSONL record stream to w: the union of all complete records, sorted into
// the campaign's deterministic (cell, mission, repetition) order, one JSON
// object per line. Truncated final lines/frames are tolerated per source.
// Because the order is total over a campaign's episodes, merging a sharded
// run's logs and merging an equivalent single-sink run's log produce
// byte-identical output. It returns the number of records written.
func MergeRecordsJSONL(w io.Writer, sources ...io.Reader) (int, error) {
	return MergeRecords(w, FormatJSONL, sources...)
}

// MergeRecords is MergeRecordsJSONL with a selectable output format — the
// core of the avfi-records converter. The merge is a k-way heap merge over
// per-source heads: each source is sorted into its own run, then the
// smallest head across runs streams straight to w, so the merged output is
// written incrementally and no combined slice of the union is ever built.
func MergeRecords(w io.Writer, format RecordFormat, sources ...io.Reader) (int, error) {
	runs := make(mergeHeap, 0, len(sources))
	for i, src := range sources {
		part, err := LoadRecords(src)
		if err != nil {
			return 0, fmt.Errorf("campaign: merge: source %d: %w", i, unwrapResume(err))
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

	var enc *json.Encoder
	var frame []byte
	if format == FormatJSONL {
		enc = json.NewEncoder(w)
	}
	n := 0
	for len(runs) > 0 {
		rec := runs[0][0]
		if len(runs[0]) == 1 {
			heap.Pop(&runs)
		} else {
			runs[0] = runs[0][1:]
			heap.Fix(&runs, 0)
		}
		var err error
		if enc != nil {
			err = enc.Encode(rec)
		} else {
			frame, err = AppendBinaryRecord(frame[:0], rec)
			if err == nil {
				_, err = w.Write(frame)
			}
		}
		if err != nil {
			return n, fmt.Errorf("campaign: merge: %w", err)
		}
		n++
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
