package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/avfi/avfi/internal/metrics"
)

// TestResumeFromStreamMatchesMaterialized: resuming through a streaming
// RecordSource over an on-disk log (either format) reproduces the
// uninterrupted run, re-running only the episodes not on record.
func TestResumeFromStreamMatchesMaterialized(t *testing.T) {
	full, err := NewRunner(resumeBase(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	half := want.Records[:len(want.Records)/2]

	for _, format := range []RecordFormat{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "records.log")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			sink := format.NewRecordSink(f)
			for _, r := range half {
				if err := sink.Consume(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			stream, err := OpenRecordsPath(path)
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()
			cfg := resumeBase(t)
			cfg.ResumeFrom = stream
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Error("streamed resume diverged from the uninterrupted run")
			}
			if got.Engine.Episodes != len(want.Records)-len(half) {
				t.Errorf("streamed resume ran %d episodes, want %d",
					got.Engine.Episodes, len(want.Records)-len(half))
			}
		})
	}
}

// TestLoadRecordsDirMixedFormats: JSONL and binary shard logs coexist in
// one directory and load as a single sorted record set.
func TestLoadRecordsDirMixedFormats(t *testing.T) {
	dir := t.TempDir()
	recs := []metrics.EpisodeRecord{
		{Injector: "a", Mission: 0, Repetition: 0, Seed: 1},
		{Injector: "a", Mission: 1, Repetition: 0, Seed: 2},
		{Injector: "b", Mission: 0, Repetition: 0, Seed: 3,
			Violations: []metrics.ViolationRecord{{Kind: "lane", TimeSec: 2}}},
	}
	write := func(name string, format RecordFormat, rs []metrics.EpisodeRecord) {
		var buf bytes.Buffer
		sink := format.NewRecordSink(&buf)
		for _, r := range rs {
			if err := sink.Consume(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(ShardLogName(0), FormatJSONL, recs[:1])
	write(BinaryShardLogName(1), FormatBinary, recs[1:])

	got, err := LoadRecordsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]metrics.EpisodeRecord(nil), recs...)
	sortRecords(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixed-format dir:\n got  %+v\n want %+v", got, want)
	}
}

// TestResumeFromBinaryShardDirectory is the binary mirror of
// TestResumeFromShardDirectory: a binary-sharded campaign crashes (one
// shard's tail truncated mid-frame), is resumed by streaming the shard
// directory, and must finish with logs that merge bit-identically to the
// uninterrupted run's.
func TestResumeFromBinaryShardDirectory(t *testing.T) {
	const nShards = 2
	runSharded := func(dir string, resume RecordSource, appendMode bool) *ResultSet {
		cfg := shardBase(t)
		cfg.ResumeFrom = resume
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

	// Fabricate the crash: drop shard 1's final complete frame and leave
	// half of it behind as the truncated tail, then clamp exactly as
	// cmd/avfi's append mode does.
	crashDir := t.TempDir()
	for i := 0; i < nShards; i++ {
		data, err := os.ReadFile(filepath.Join(fullDir, BinaryShardLogName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if len(data) == 0 {
				t.Fatal("shard 1 is empty; cells not distributed")
			}
			boundary, err := CompleteBinaryPrefixLen(bytes.NewReader(data[:len(data)-1]))
			if err != nil {
				t.Fatal(err)
			}
			if boundary == 0 {
				t.Fatal("shard 1 has one record; need >= 2 to truncate meaningfully")
			}
			data = data[:int(boundary)+(len(data)-int(boundary))/2]
		}
		if err := os.WriteFile(filepath.Join(crashDir, BinaryShardLogName(i)), data, 0o644); err != nil {
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
	for i := 0; i < nShards; i++ {
		path := filepath.Join(crashDir, BinaryShardLogName(i))
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

	stream, err := OpenRecordsDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	got := runSharded(crashDir, stream, true)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("binary shard resume diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("binary shard resume reports diverged")
	}
	fresh := len(want.Records) - len(resumed)
	if got.Engine.Episodes != fresh {
		t.Errorf("resumed campaign ran %d episodes, want the %d missing ones", got.Engine.Episodes, fresh)
	}

	// No slot sunk twice, and the resumed directory's canonical merge is
	// byte-identical to the uninterrupted run's.
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
	mergeDir := func(dir string) []byte {
		var files []io.Reader
		for i := 0; i < nShards; i++ {
			data, err := os.ReadFile(filepath.Join(dir, BinaryShardLogName(i)))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, bytes.NewReader(data))
		}
		var out bytes.Buffer
		if _, err := MergeRecords(&out, FormatJSONL, files...); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(mergeDir(crashDir), mergeDir(fullDir)) {
		t.Error("merged resumed binary shards are not byte-identical to the uninterrupted run's merge")
	}
}

// TestBinaryBatchedCampaignBitIdentical is the hot-path determinism
// contract: the same campaign streamed through a binary sink with batched
// episode dispatch merges to the byte-identical canonical JSONL stream as
// the plain in-process JSONL baseline, with identical reports.
func TestBinaryBatchedCampaignBitIdentical(t *testing.T) {
	base := func() Config {
		cfg := shardBase(t)
		cfg.DiscardRecords = true
		return cfg
	}

	jsonl := &bytes.Buffer{}
	cfg := base()
	cfg.Sink = NewJSONLSink(jsonl)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	binary := &bytes.Buffer{}
	cfg = base()
	cfg.Sink = NewBinarySink(binary)
	cfg.Pool = PoolConfig{Engines: 2}
	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("batched binary campaign reports diverged from the baseline")
	}

	var wantMerged, gotMerged bytes.Buffer
	if _, err := MergeRecords(&wantMerged, FormatJSONL, bytes.NewReader(jsonl.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRecords(&gotMerged, FormatJSONL, bytes.NewReader(binary.Bytes())); err != nil {
		t.Fatal(err)
	}
	if wantMerged.Len() == 0 {
		t.Fatal("baseline merge is empty")
	}
	if !bytes.Equal(gotMerged.Bytes(), wantMerged.Bytes()) {
		t.Error("binary+batched record stream does not merge byte-identically to the JSONL baseline")
	}

	// And the binary-to-binary merge round-trips through the converter
	// direction too: JSONL -> binary -> JSONL is lossless.
	var rebin, back bytes.Buffer
	if _, err := MergeRecords(&rebin, FormatBinary, bytes.NewReader(jsonl.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRecords(&back, FormatJSONL, bytes.NewReader(rebin.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), wantMerged.Bytes()) {
		t.Error("JSONL -> binary -> JSONL conversion is not byte-lossless")
	}
}
