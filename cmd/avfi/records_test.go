package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/avfi/avfi"
)

func testRecords() []avfi.EpisodeRecord {
	return []avfi.EpisodeRecord{
		{Injector: "gaussian", Mission: 1, Repetition: 0, Seed: 7, Success: true,
			DistanceKM: 1.4025, DurationSec: 12.5},
		{Injector: "noinject", Mission: 0, Repetition: 0, Seed: 3, Success: true,
			DistanceKM: 1.0, DurationSec: 9.0},
		{Injector: "noinject", Mission: 0, Repetition: 1, Seed: 4,
			Violations: []avfi.ViolationRecord{{Kind: "collision", TimeSec: 4.5, Accident: true}}},
	}
}

func writeLog(t *testing.T, path string, recs []avfi.EpisodeRecord) {
	t.Helper()
	if err := os.WriteFile(path, binaryLog(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runRecords runs `avfi records args...`.
func runRecords(args []string, stdout io.Writer) error {
	return run(context.Background(), append([]string{"records"}, args...), stdout, io.Discard)
}

// canonical is the reference output: the canonical sorted merge of the
// given records in format.
func canonical(t *testing.T, format avfi.RecordFormat, recs []avfi.EpisodeRecord) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := avfi.MergeRecords(&out, format, bytes.NewReader(binaryLog(t, recs))); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRecordsMergesShardDirToStdout: a shard directory merges to the canonical
// JSONL export on stdout.
func TestRecordsMergesShardDirToStdout(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	writeLog(t, filepath.Join(dir, avfi.BinaryShardLogName(0)), recs[:1])
	writeLog(t, filepath.Join(dir, avfi.BinaryShardLogName(1)), recs[1:])

	var out bytes.Buffer
	if err := runRecords([]string{dir}, &out); err != nil {
		t.Fatal(err)
	}
	if want := canonical(t, avfi.FormatJSONL, recs); !bytes.Equal(out.Bytes(), want) {
		t.Errorf("merged dir = %q, want %q", out.Bytes(), want)
	}
}

// TestRecordsConvertsRoundTrip: an unsorted binary log -> canonical binary
// file -> JSONL export through the command is byte-lossless, and the
// canonical binary log is a fixed point of the merge.
func TestRecordsConvertsRoundTrip(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	src := filepath.Join(dir, "records.bin")
	writeLog(t, src, recs)

	bin := filepath.Join(dir, "merged.bin")
	if err := runRecords([]string{"-format", "binary", "-o", bin, src}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if want := canonical(t, avfi.FormatBinary, recs); !bytes.Equal(data, want) {
		t.Errorf("binary merge = %x, want %x", data, want)
	}

	var back bytes.Buffer
	if err := runRecords([]string{bin}, &back); err != nil {
		t.Fatal(err)
	}
	if want := canonical(t, avfi.FormatJSONL, recs); !bytes.Equal(back.Bytes(), want) {
		t.Errorf("binary round trip = %q, want %q", back.Bytes(), want)
	}
}

// TestRecordsRefusesOutputOverInput: -o naming one of the inputs must be
// refused before os.Create truncates it.
func TestRecordsRefusesOutputOverInput(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "records.bin")
	writeLog(t, src, testRecords())

	err := runRecords([]string{"-o", src, src}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "also an input") {
		t.Fatalf("merging a log onto itself: err = %v, want output-is-input refusal", err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("refused merge still truncated the input")
	}
}

// TestRecordsRejectsEmptyAndMissingInputs pins the error paths: no args, a
// directory with no shard logs, a nonexistent path, and an input that is
// not a binary log — the command's own JSONL export — which must be
// refused by name rather than merged as zero records.
func TestRecordsRejectsEmptyAndMissingInputs(t *testing.T) {
	if err := runRecords(nil, &bytes.Buffer{}); err == nil {
		t.Error("no arguments accepted")
	}
	if err := runRecords([]string{t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("shard-less directory accepted")
	}
	if err := runRecords([]string{filepath.Join(t.TempDir(), "absent.bin")}, &bytes.Buffer{}); err == nil {
		t.Error("nonexistent input accepted")
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "records.bin")
	writeLog(t, good, testRecords())
	export := filepath.Join(dir, "records.jsonl")
	if err := os.WriteFile(export, canonical(t, avfi.FormatJSONL, testRecords()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runRecords([]string{good, export}, &out)
	if err == nil || !strings.Contains(err.Error(), export) {
		t.Errorf("JSONL input: err = %v, want a refusal naming %s", err, export)
	}
	if out.Len() != 0 {
		t.Errorf("refused merge wrote %d bytes", out.Len())
	}
}
