package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
)

// shardBase is the campaign every sharded-sink test runs.
func shardBase(t *testing.T) Config {
	cfg := tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	})
	cfg.Parallelism = 3
	return cfg
}

// TestShardedSinkMergeByteIdentical is the shard-log contract: a campaign
// streamed through three shard sinks and the same campaign streamed
// through one sink must merge (MergeRecordsJSONL) to byte-identical
// canonical record streams.
func TestShardedSinkMergeByteIdentical(t *testing.T) {
	single := &bytes.Buffer{}
	cfg := shardBase(t)
	cfg.Sink = NewJSONLSink(single)
	cfg.DiscardRecords = true
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	shards := []*bytes.Buffer{{}, {}, {}}
	cfg = shardBase(t)
	for _, buf := range shards {
		cfg.ShardSinks = append(cfg.ShardSinks, NewJSONLSink(buf))
	}
	cfg.DiscardRecords = true
	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	written := 0
	for _, buf := range shards {
		if buf.Len() > 0 {
			written++
		}
	}
	if written < 2 {
		t.Errorf("only %d of 3 shard logs saw records; cells not distributed", written)
	}

	var wantMerged bytes.Buffer
	wantN, err := MergeRecordsJSONL(&wantMerged, bytes.NewReader(single.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gotMerged bytes.Buffer
	readers := make([]io.Reader, len(shards))
	for i, buf := range shards {
		readers[i] = bytes.NewReader(buf.Bytes())
	}
	gotN, err := MergeRecordsJSONL(&gotMerged, readers...)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Errorf("merged %d records from shards, want %d", gotN, wantN)
	}
	if !bytes.Equal(gotMerged.Bytes(), wantMerged.Bytes()) {
		t.Error("merged shard logs are not byte-identical to the merged single log")
	}
}

// TestLoadRecordsDir: shard logs written to disk load back as one sorted
// record set, tolerating a crash-truncated tail in any one shard.
func TestLoadRecordsDir(t *testing.T) {
	dir := t.TempDir()
	recs := []metrics.EpisodeRecord{
		{Injector: "a", Mission: 0, Repetition: 0, Seed: 1},
		{Injector: "a", Mission: 1, Repetition: 0, Seed: 2},
		{Injector: "b", Mission: 0, Repetition: 0, Seed: 3},
		{Injector: "c", Mission: 0, Repetition: 1, Seed: 4},
	}
	// Shard 0 gets a+c, shard 1 gets b plus a partial trailing record.
	writeShard := func(name string, rs []metrics.EpisodeRecord, tail string) {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, r := range rs {
			if err := sink.Consume(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(tail)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeShard(ShardLogName(0), []metrics.EpisodeRecord{recs[0], recs[1], recs[3]}, "")
	writeShard(ShardLogName(1), []metrics.EpisodeRecord{recs[2]}, `{"Injector":"b","Missi`)

	got, err := LoadRecordsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]metrics.EpisodeRecord(nil), recs...)
	sortRecords(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LoadRecordsDir:\n got  %+v\n want %+v", got, want)
	}

	// An empty directory is an empty log, not an error.
	empty, err := LoadRecordsDir(t.TempDir())
	if err != nil || len(empty) != 0 {
		t.Errorf("empty dir = %d records, %v; want 0, nil", len(empty), err)
	}
}

// TestResumeFromShardDirectory is the sharded resume satellite: a sharded
// campaign crashes (one shard's tail truncated mid-record, later episodes
// lost), is resumed from the shard directory, and must finish with logs
// whose merge is bit-identical to the uninterrupted run — with no episode
// re-sunk twice.
func TestResumeFromShardDirectory(t *testing.T) {
	const nShards = 2
	runSharded := func(dir string, resume []metrics.EpisodeRecord, appendMode bool) *ResultSet {
		cfg := shardBase(t)
		cfg.ResumeFrom = &sliceSource{recs: resume}
		for i := 0; i < nShards; i++ {
			path := filepath.Join(dir, ShardLogName(i))
			var f *os.File
			var err error
			if appendMode {
				f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			} else {
				f, err = os.Create(path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			cfg.ShardSinks = append(cfg.ShardSinks, NewJSONLSink(f))
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	fullDir := t.TempDir()
	want := runSharded(fullDir, nil, false)

	// Fabricate the crash: copy the full shard logs, drop the second
	// shard's last complete record and leave a partial line in its place —
	// a run killed mid-write.
	crashDir := t.TempDir()
	for i := 0; i < nShards; i++ {
		data, err := os.ReadFile(filepath.Join(fullDir, ShardLogName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			lines := strings.SplitAfter(string(data), "\n")
			if len(lines) < 3 {
				t.Fatalf("shard 1 has %d lines; need >= 2 records to truncate meaningfully", len(lines))
			}
			last := lines[len(lines)-2] // final complete record
			data = []byte(strings.Join(lines[:len(lines)-2], "") + last[:len(last)/2])
		}
		if err := os.WriteFile(filepath.Join(crashDir, ShardLogName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := LoadRecordsDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) >= len(want.Records) {
		t.Fatalf("crash fabrication failed: resumed %d of %d records", len(resumed), len(want.Records))
	}
	// Clamp the partial tail exactly like cmd/avfi does before appending.
	clampShardTails(t, crashDir, nShards)

	got := runSharded(crashDir, resumed, true)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("resumed sharded campaign diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("resumed sharded reports diverged from the uninterrupted run")
	}
	fresh := len(want.Records) - len(resumed)
	if got.Engine.Episodes != fresh {
		t.Errorf("resumed campaign ran %d episodes, want the %d missing ones", got.Engine.Episodes, fresh)
	}

	// The resumed directory's merge is bit-identical to the full run's
	// merge, and no (cell, mission, repetition) slot appears twice.
	finalRecs, err := LoadRecordsDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	slots := map[string]int{}
	for _, rec := range finalRecs {
		slots[fmt.Sprintf("%s|%d|%d", rec.Injector, rec.Mission, rec.Repetition)]++
	}
	for slot, n := range slots {
		if n > 1 {
			t.Errorf("slot %s sunk %d times after resume", slot, n)
		}
	}
	if !reflect.DeepEqual(finalRecs, want.Records) {
		t.Error("resumed shard directory does not reload to the uninterrupted run's records")
	}
	mergeDir := func(dir string) []byte {
		var files []io.Reader
		for i := 0; i < nShards; i++ {
			data, err := os.ReadFile(filepath.Join(dir, ShardLogName(i)))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, bytes.NewReader(data))
		}
		var out bytes.Buffer
		if _, err := MergeRecordsJSONL(&out, files...); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(mergeDir(crashDir), mergeDir(fullDir)) {
		t.Error("merged resumed shards are not byte-identical to the uninterrupted run's merge")
	}
}

// clampShardTails truncates each shard log to its last complete line —
// the append-mode preparation cmd/avfi performs.
func clampShardTails(t *testing.T, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, ShardLogName(i))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cut := bytes.LastIndexByte(data, '\n'); cut >= 0 {
			data = data[:cut+1]
		} else {
			data = nil
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
