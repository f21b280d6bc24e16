package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
// through one sink must merge (MergeRecords) to byte-identical canonical
// record streams.
func TestShardedSinkMergeByteIdentical(t *testing.T) {
	single := &bytes.Buffer{}
	cfg := shardBase(t)
	cfg.Sink = NewBinarySink(single)
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
		cfg.ShardSinks = append(cfg.ShardSinks, NewBinarySink(buf))
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
	wantN, err := MergeRecords(&wantMerged, FormatJSONL, bytes.NewReader(single.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gotMerged bytes.Buffer
	readers := make([]io.Reader, len(shards))
	for i, buf := range shards {
		readers[i] = bytes.NewReader(buf.Bytes())
	}
	gotN, err := MergeRecords(&gotMerged, FormatJSONL, readers...)
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

// TestMergeRecordsGolden pins MergeRecords' output bytes in both formats
// for a fixed record set split over two unsorted sources. The golden files
// predate routing the merge through RecordFormat.NewRecordSink; any
// change to either encoding fails here.
func TestMergeRecordsGolden(t *testing.T) {
	recs := codecRecords()
	a := encodeLog(t, FormatBinary, recs[2:])
	b := encodeLog(t, FormatBinary, recs[:2])
	for _, tc := range []struct {
		format RecordFormat
		golden string
	}{
		{FormatJSONL, "merge.jsonl"},
		{FormatBinary, "merge.bin"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		n, err := MergeRecords(&out, tc.format, bytes.NewReader(a), bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Errorf("%s: merged %d records, want %d", tc.format, n, len(recs))
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s merge diverged from testdata/%s:\n got  %q\n want %q", tc.format, tc.golden, out.Bytes(), want)
		}
	}
}

// TestLoadRecordsDir: binary shard logs written to disk load back as one
// sorted record set, tolerating a crash-truncated final frame in any one
// shard.
func TestLoadRecordsDir(t *testing.T) {
	dir := t.TempDir()
	recs := []metrics.EpisodeRecord{
		{Injector: "a", Mission: 0, Repetition: 0, Seed: 1},
		{Injector: "a", Mission: 1, Repetition: 0, Seed: 2},
		{Injector: "b", Mission: 0, Repetition: 0, Seed: 3},
		{Injector: "c", Mission: 0, Repetition: 1, Seed: 4},
	}
	// Shard 0 gets a+c, shard 1 gets b plus half of a trailing frame.
	writeLog(t, filepath.Join(dir, BinaryShardLogName(0)), FormatBinary, []metrics.EpisodeRecord{recs[0], recs[1], recs[3]})
	partial := encodeLog(t, FormatBinary, []metrics.EpisodeRecord{{Injector: "b", Mission: 1}})
	shard1 := append(encodeLog(t, FormatBinary, recs[2:3]), partial[:len(partial)/2]...)
	if err := os.WriteFile(filepath.Join(dir, BinaryShardLogName(1)), shard1, 0o644); err != nil {
		t.Fatal(err)
	}

	want := append([]metrics.EpisodeRecord(nil), recs...)
	sortRecords(want)
	if got := loadDir(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("shard dir:\n got  %+v\n want %+v", got, want)
	}

	// A directory without shard logs is an error, not an empty log (see
	// TestOpenRecordsDirWithoutShardLogs).
	if _, err := OpenRecordsPath(t.TempDir()); err == nil {
		t.Error("empty dir streamed as an empty log, want an error")
	}
}

// TestResumeFromShardDirectory is the sharded resume satellite: a sharded
// campaign crashes (one shard's tail truncated mid-frame, later episodes
// lost), is resumed from the shard directory's records, and must finish
// with logs whose merge is bit-identical to the uninterrupted run — with
// no episode re-sunk twice.
func TestResumeFromShardDirectory(t *testing.T) {
	const nShards = 2
	runSharded := func(dir string, resume []metrics.EpisodeRecord, appendMode bool) *ResultSet {
		cfg := shardBase(t)
		cfg.ResumeFrom = &sliceSource{recs: resume}
		for i := 0; i < nShards; i++ {
			path := filepath.Join(dir, BinaryShardLogName(i))
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
			cfg.ShardSinks = append(cfg.ShardSinks, NewBinarySink(f))
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
	// shard's last complete frame and leave a few bytes of it in its place
	// — a run killed mid-write, inside the frame header.
	crashDir := t.TempDir()
	for i := 0; i < nShards; i++ {
		data, err := os.ReadFile(filepath.Join(fullDir, BinaryShardLogName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			boundary, err := CompleteBinaryPrefixLen(bytes.NewReader(data[:len(data)-1]))
			if err != nil {
				t.Fatal(err)
			}
			if boundary == 0 {
				t.Fatal("shard 1 has one record; need >= 2 to truncate meaningfully")
			}
			data = data[:boundary+3]
		}
		if err := os.WriteFile(filepath.Join(crashDir, BinaryShardLogName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed := loadDir(t, crashDir)
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
	finalRecs := loadDir(t, crashDir)
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
	if !bytes.Equal(mergeShardDir(t, crashDir, nShards), mergeShardDir(t, fullDir, nShards)) {
		t.Error("merged resumed shards are not byte-identical to the uninterrupted run's merge")
	}
}

// clampShardTails truncates each shard log to its last complete frame —
// the append-mode preparation cmd/avfi performs.
func clampShardTails(t *testing.T, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, BinaryShardLogName(i))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		good, err := CompleteBinaryPrefixLen(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:good], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
