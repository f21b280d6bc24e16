package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/avfi/avfi"
)

func TestSameFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(mustGetwd(t), path)
	if err != nil {
		t.Skip("temp dir not relativizable from cwd")
	}
	if !sameFile(path, rel) {
		t.Error("absolute and relative spellings of one file not detected as the same")
	}
	if sameFile(path, filepath.Join(dir, "other.bin")) {
		t.Error("nonexistent file reported same")
	}
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// tinyServeWorld keeps serve tests fast: the worker builds this world
// instead of the full DefaultWorldConfig one.
func tinyServeWorld() avfi.WorldConfig {
	cfg := avfi.DefaultWorldConfig()
	cfg.Town.GridW, cfg.Town.GridH = 3, 3
	cfg.Camera.Width, cfg.Camera.Height = 16, 12
	return cfg
}

// syncBuffer lets the test read worker output while serveWorker is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServeWorkerInvalidAddress(t *testing.T) {
	err := serveWorker(context.Background(), "definitely.not.a.host:notaport", tinyServeWorld(), &syncBuffer{}, nil, "")
	if err == nil {
		t.Fatal("serveWorker accepted an unparseable address")
	}
}

func TestServeWorkerAlreadyBound(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := serveWorker(context.Background(), l.Addr().String(), tinyServeWorld(), &syncBuffer{}, nil, ""); err == nil {
		t.Fatal("serveWorker bound an address another listener holds")
	}
}

// waitForServing polls the worker's output until it announces its bound
// address, so shutdown tests cannot race worker startup.
func waitForServing(t *testing.T, out *syncBuffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), "serving simulator backend on") {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("worker never announced its address; output so far: %q", out.String())
}

func TestServeWorkerGracefulContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- serveWorker(ctx, "127.0.0.1:0", tinyServeWorld(), out, nil, "") }()
	waitForServing(t, out)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled worker exited with %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not shut down on context cancellation")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Errorf("worker output missing shutdown notice: %q", out.String())
	}
}

func TestServeWorkerGracefulSIGTERM(t *testing.T) {
	// The same signal context main installs: SIGTERM must cancel it and
	// bring the worker down cleanly, not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- serveWorker(ctx, "127.0.0.1:0", tinyServeWorld(), out, nil, "") }()
	waitForServing(t, out)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM'd worker exited with %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not shut down on SIGTERM")
	}
}

func TestParseBackends(t *testing.T) {
	got, err := parseBackends(" host1:7070, host2:7070 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"host1:7070", "host2:7070"}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseBackends = %v, want %v", got, want)
	}
	if got, err := parseBackends("  "); err != nil || got != nil {
		t.Errorf("blank -backends = %v, %v; want nil, nil", got, err)
	}
	if _, err := parseBackends("host1:7070,,host2:7070"); err == nil {
		t.Error("stray comma in -backends accepted")
	}
}

func TestIsDirPath(t *testing.T) {
	dir := t.TempDir()
	if !isDirPath(dir) {
		t.Error("existing directory not detected")
	}
	if !isDirPath(filepath.Join(dir, "new-logs") + "/") {
		t.Error("trailing-slash path not treated as a directory")
	}
	if isDirPath(filepath.Join(dir, "records.bin")) {
		t.Error("nonexistent plain file path treated as a directory")
	}
}

// TestOpenShardLogsAppendClampsTails: append mode must clamp each existing
// shard to its last complete frame (dropping a crash-truncated tail, here
// cut inside the frame header) and create shards that don't exist yet.
func TestOpenShardLogsAppendClampsTails(t *testing.T) {
	dir := t.TempDir()
	complete := binaryLog(t, []avfi.EpisodeRecord{
		{Injector: "noinject", Mission: 0, Seed: 1},
		{Injector: "noinject", Mission: 1, Seed: 2},
	})
	tail := binaryLog(t, []avfi.EpisodeRecord{{Injector: "noinject", Mission: 2, Seed: 3}})[:3]
	if err := os.WriteFile(filepath.Join(dir, avfi.BinaryShardLogName(0)),
		append(append([]byte(nil), complete...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := openShardLogs(dir, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	fresh := binaryLog(t, []avfi.EpisodeRecord{{Injector: "gaussian", Mission: 0, Seed: 9}})
	for _, f := range files {
		if _, err := f.Write(fresh); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shard0, err := os.ReadFile(filepath.Join(dir, avfi.BinaryShardLogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), complete...), fresh...); !bytes.Equal(shard0, want) {
		t.Errorf("shard 0 after clamped append = %x, want %x", shard0, want)
	}
	shard1, err := os.ReadFile(filepath.Join(dir, avfi.BinaryShardLogName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard1, fresh) {
		t.Errorf("fresh shard 1 = %x, want %x", shard1, fresh)
	}
}

// TestFreshShardRunRefusesInDirResumeSource: resuming from a file inside
// the stream directory without append mode must be refused up front —
// openShardLogs would otherwise delete the resume source, and its
// episodes (never re-sunk) would vanish from the durable log.
func TestFreshShardRunRefusesInDirResumeSource(t *testing.T) {
	dir := t.TempDir()
	resume := filepath.Join(dir, avfi.BinaryShardLogName(0))
	if err := os.WriteFile(resume, binaryLog(t, []avfi.EpisodeRecord{{Injector: "noinject"}}), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"run", "-resume", resume, "-stream-records", dir, "-missions", "1", "-reps", "1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "lives inside the -stream-records directory") {
		t.Fatalf("run = %v, want refusal to delete the in-directory resume source", err)
	}
	if _, statErr := os.Stat(resume); statErr != nil {
		t.Errorf("resume source was destroyed: %v", statErr)
	}
}

// TestResumeRefusesNonBinaryLog: -resume of a JSONL log fails before any
// training, naming the file — whether the log is resumed into itself
// (append mode), into another stream, or is one shard of a directory
// being appended to — and the log is left untouched.
func TestResumeRefusesNonBinaryLog(t *testing.T) {
	const jsonl = "{\"Injector\":\"noinject\",\"Mission\":0}\n{\"Injector\":\"noinj"
	dir := t.TempDir()
	log := filepath.Join(dir, "records.jsonl")
	shardDir := filepath.Join(dir, "shards")
	shard := filepath.Join(shardDir, avfi.BinaryShardLogName(0))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{log, shard} {
		if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, resume, stream, bad string
	}{
		{"append", log, log, log},
		{"fresh stream", log, filepath.Join(dir, "out.bin"), log},
		{"shard dir append", shardDir, shardDir, shard},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), []string{"run", "-resume", tc.resume, "-stream-records", tc.stream, "-missions", "1", "-reps", "1"}, io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.bad) || !strings.Contains(err.Error(), "not a binary record log") {
				t.Fatalf("run = %v, want a refusal naming %s", err, tc.bad)
			}
			if data, _ := os.ReadFile(tc.bad); string(data) != jsonl {
				t.Errorf("refused log was modified: %q", data)
			}
		})
	}
}

// TestOpenShardLogsFreshRemovesStaleShards: a fresh (non-resume) sharded
// run must clear every previous records-*.bin, not just truncate its own
// n — a prior larger run's higher-numbered shards would otherwise be
// silently ingested by a later -resume or merge of the directory.
func TestOpenShardLogsFreshRemovesStaleShards(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		if err := os.WriteFile(filepath.Join(dir, avfi.BinaryShardLogName(i)),
			binaryLog(t, []avfi.EpisodeRecord{{Injector: "stale"}}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := openShardLogs(dir, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "records-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Errorf("fresh run left %d shard logs (%v), want exactly its own 2", len(left), left)
	}
	for _, path := range left {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 0 {
			t.Errorf("%s not truncated: %x", filepath.Base(path), data)
		}
	}
}

// binaryLog encodes records through the binary sink for shard fixtures.
func binaryLog(t *testing.T, recs []avfi.EpisodeRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := avfi.NewBinarySink(&buf)
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

// TestOpenShardLogsBinaryAppendClampsFrames: append mode on binary shards
// must clamp each existing log to its last complete frame (dropping a
// crash-truncated tail) before appending.
func TestOpenShardLogsBinaryAppendClampsFrames(t *testing.T) {
	dir := t.TempDir()
	whole := binaryLog(t, []avfi.EpisodeRecord{
		{Injector: "noinject", Mission: 0, Seed: 1},
		{Injector: "noinject", Mission: 1, Seed: 2},
	})
	// Leave half of the second frame as the crash tail.
	complete := binaryLog(t, []avfi.EpisodeRecord{{Injector: "noinject", Mission: 0, Seed: 1}})
	cut := len(complete) + (len(whole)-len(complete))/2
	if err := os.WriteFile(filepath.Join(dir, avfi.BinaryShardLogName(0)), whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	files, err := openShardLogs(dir, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	fresh := binaryLog(t, []avfi.EpisodeRecord{{Injector: "gaussian", Mission: 0, Seed: 9}})
	for _, f := range files {
		if _, err := f.Write(fresh); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shard0, err := os.ReadFile(filepath.Join(dir, avfi.BinaryShardLogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), complete...), fresh...); !bytes.Equal(shard0, want) {
		t.Errorf("shard 0 after clamped append = %x, want %x", shard0, want)
	}
	recs, err := avfi.LoadRecords(bytes.NewReader(shard0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("clamped-and-appended shard holds %d records, want 2", len(recs))
	}
}
