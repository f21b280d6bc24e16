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

	"github.com/avfi/avfi/internal/metrics"
)

// encodeLog encodes records through format's sink.
func encodeLog(t *testing.T, format RecordFormat, recs []metrics.EpisodeRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := format.NewRecordSink(&buf)
	for _, r := range recs {
		if err := sink.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeLog writes records to path through format's sink.
func writeLog(t *testing.T, path string, format RecordFormat, recs []metrics.EpisodeRecord) {
	t.Helper()
	if err := os.WriteFile(path, encodeLog(t, format, recs), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadDir streams every shard log in dir and returns the records in the
// canonical campaign order.
func loadDir(t *testing.T, dir string) []metrics.EpisodeRecord {
	t.Helper()
	stream, err := OpenRecordsPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	recs, err := drainSource(stream)
	if err != nil {
		t.Fatal(err)
	}
	sortRecords(recs)
	return recs
}

// TestResumeFromStreamMatchesMaterialized: resuming through a streaming
// RecordSource over an on-disk binary log — one file, or the same records
// split over a shard directory — reproduces the uninterrupted run,
// re-running only the episodes not on record.
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

	for _, tc := range []struct {
		name  string
		write func(dir string) string // returns the path to resume from
	}{
		{"binary", func(dir string) string {
			path := filepath.Join(dir, "records.bin")
			writeLog(t, path, FormatBinary, half)
			return path
		}},
		{"shards", func(dir string) string {
			writeLog(t, filepath.Join(dir, BinaryShardLogName(0)), FormatBinary, half[:len(half)/2])
			writeLog(t, filepath.Join(dir, BinaryShardLogName(1)), FormatBinary, half[len(half)/2:])
			return dir
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream, err := OpenRecordsPath(tc.write(t.TempDir()))
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

// notBinaryLogs are logs every reader must refuse: a JSONL export, one
// shorter than a frame header, and one stray byte.
func notBinaryLogs(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"export.jsonl": encodeLog(t, FormatJSONL, codecRecords()),
		"short.jsonl":  []byte("{}\n"),
		"stray.bin":    []byte("x"),
	}
}

// TestLoadRecordsRejectsJSONL is the reader contract: a log that is not
// binary — a JSONL export above all — fails every read path with an error
// naming the file. It never reads as zero records.
func TestLoadRecordsRejectsJSONL(t *testing.T) {
	dir := t.TempDir()
	for name, data := range notBinaryLogs(t) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(via string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%s(%s): err = %v, want an error naming the file", via, name, err)
			}
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := LoadRecords(f)
		f.Close()
		check("LoadRecords", err)
		if recs != nil {
			t.Errorf("LoadRecords(%s) returned %d records alongside its error", name, len(recs))
		}

		_, err = OpenRecordsPath(path)
		check("OpenRecordsPath", err)

		good := bytes.NewReader(encodeLog(t, FormatBinary, codecRecords()))
		f, err = os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = MergeRecords(io.Discard, FormatJSONL, good, f)
		f.Close()
		check("MergeRecords", err)
	}
	// Unnamed readers are named by position.
	_, err := MergeRecords(io.Discard, FormatJSONL, strings.NewReader("{}\n"))
	if err == nil || !strings.Contains(err.Error(), "merge source 0") {
		t.Errorf("MergeRecords(reader): err = %v, want one naming merge source 0", err)
	}
}

// TestOpenRecordsDirRejectsNonBinaryShard: a shard directory streams its
// binary shards until it reaches one that is not binary, which fails the
// stream naming that shard.
func TestOpenRecordsDirRejectsNonBinaryShard(t *testing.T) {
	for name, data := range notBinaryLogs(t) {
		dir := t.TempDir()
		writeLog(t, filepath.Join(dir, BinaryShardLogName(0)), FormatBinary, codecRecords())
		bad := filepath.Join(dir, BinaryShardLogName(1))
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stream, err := OpenRecordsPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := drainSource(stream)
		stream.Close()
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s as shard 1: err = %v (%d records), want an error naming %s", name, err, len(recs), bad)
		}
	}
}

// TestResumeFromBinaryShardDirectory: a binary-sharded campaign crashes
// (one shard's tail truncated mid-frame), is resumed by streaming the
// shard directory, and must finish with logs that merge bit-identically to
// the uninterrupted run's.
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

	resumed := loadDir(t, crashDir)
	if len(resumed) >= len(want.Records) {
		t.Fatalf("crash fabrication failed: resumed %d of %d records", len(resumed), len(want.Records))
	}
	clampShardTails(t, crashDir, nShards)

	stream, err := OpenRecordsPath(crashDir)
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
	slots := map[string]int{}
	for _, rec := range loadDir(t, crashDir) {
		slots[fmt.Sprintf("%s|%d|%d", rec.Injector, rec.Mission, rec.Repetition)]++
	}
	for slot, n := range slots {
		if n > 1 {
			t.Errorf("slot %s sunk %d times after resume", slot, n)
		}
	}
	if !bytes.Equal(mergeShardDir(t, crashDir, nShards), mergeShardDir(t, fullDir, nShards)) {
		t.Error("merged resumed binary shards are not byte-identical to the uninterrupted run's merge")
	}
}

// mergeShardDir merges dir's n shard logs into the canonical JSONL export.
func mergeShardDir(t *testing.T, dir string, n int) []byte {
	t.Helper()
	var files []io.Reader
	for i := 0; i < n; i++ {
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

// TestBinaryBatchedCampaignBitIdentical is the hot-path determinism
// contract: the same campaign streamed through a binary sink over two
// remote workers with batched episode dispatch merges to the byte-identical
// canonical stream as the in-process baseline, with identical reports.
func TestBinaryBatchedCampaignBitIdentical(t *testing.T) {
	run := func(workers int) ([]byte, []metrics.Report) {
		var log bytes.Buffer
		cfg := shardBase(t)
		cfg.DiscardRecords = true
		cfg.Sink = NewBinarySink(&log)
		cfg.Pool = workerPool(t, workers)
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return log.Bytes(), rs.Reports
	}
	baseLog, want := run(0)
	gotLog, got := run(2)
	if !reflect.DeepEqual(got, want) {
		t.Error("batched binary campaign reports diverged from the baseline")
	}

	merge := func(format RecordFormat, log []byte) []byte {
		var out bytes.Buffer
		if _, err := MergeRecords(&out, format, bytes.NewReader(log)); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	for _, format := range []RecordFormat{FormatJSONL, FormatBinary} {
		wantMerged := merge(format, baseLog)
		if len(wantMerged) == 0 {
			t.Fatal("baseline merge is empty")
		}
		if !bytes.Equal(merge(format, gotLog), wantMerged) {
			t.Errorf("binary+batched record stream does not merge byte-identically to the baseline as %s", format)
		}
	}
	// The canonical binary merge is a fixed point, and exports to the same
	// JSONL as the raw log.
	canon := merge(FormatBinary, gotLog)
	if !bytes.Equal(merge(FormatBinary, canon), canon) {
		t.Error("re-merging the canonical binary log changed it")
	}
	if !bytes.Equal(merge(FormatJSONL, canon), merge(FormatJSONL, gotLog)) {
		t.Error("binary -> binary -> JSONL is not byte-lossless")
	}
}

// TestOpenRecordsDirWithoutShardLogs: resuming from a directory with no
// binary shard log — a mistyped one, an empty one, or one holding only
// JSONL shards — fails naming the directory (and the JSONL shards), rather
// than streaming zero records and silently re-running the campaign.
func TestOpenRecordsDirWithoutShardLogs(t *testing.T) {
	t.Run("mistyped", func(t *testing.T) {
		// The parent of the shard directory, one level too high.
		parent := t.TempDir()
		shards := filepath.Join(parent, "shards")
		if err := os.Mkdir(shards, 0o755); err != nil {
			t.Fatal(err)
		}
		writeLog(t, filepath.Join(shards, BinaryShardLogName(0)), FormatBinary, codecRecords())
		_, err := OpenRecordsPath(parent)
		if err == nil || !strings.Contains(err.Error(), parent) {
			t.Errorf("err = %v, want an error naming %s", err, parent)
		}
		missing := filepath.Join(parent, "shrads")
		if _, err := OpenRecordsPath(missing); err == nil || !strings.Contains(err.Error(), missing) {
			t.Errorf("missing directory: err = %v, want an error naming %s", err, missing)
		}
	})
	t.Run("empty", func(t *testing.T) {
		dir := t.TempDir()
		_, err := OpenRecordsPath(dir)
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), binShardLogPattern) {
			t.Errorf("err = %v, want an error naming %s and %s", err, dir, binShardLogPattern)
		}
		// Merging the same empty directory stays legal: zero logs, zero
		// records.
		if n, err := MergeRecords(io.Discard, FormatBinary); n != 0 || err != nil {
			t.Errorf("MergeRecords of no logs = %d, %v", n, err)
		}
	})
	t.Run("jsonl-only", func(t *testing.T) {
		dir := t.TempDir()
		for i := 0; i < 2; i++ {
			writeLog(t, filepath.Join(dir, fmt.Sprintf("records-%d.jsonl", i)), FormatJSONL, codecRecords())
		}
		_, err := OpenRecordsPath(dir)
		if err == nil || !strings.Contains(err.Error(), dir) ||
			!strings.Contains(err.Error(), "records-0.jsonl, records-1.jsonl") {
			t.Errorf("err = %v, want an error naming %s and both JSONL shards", err, dir)
		}
	})
}
