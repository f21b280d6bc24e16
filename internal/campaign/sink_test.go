package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
)

// collectSink is a test RecordSink remembering everything it consumed.
type collectSink struct {
	records []metrics.EpisodeRecord
	closed  bool
}

func (s *collectSink) Consume(rec metrics.EpisodeRecord) error {
	s.records = append(s.records, rec)
	return nil
}
func (s *collectSink) Close() error {
	s.closed = true
	return nil
}

// TestStreamingSinkMatchesBatch is the streaming-pipeline contract: a
// campaign that discards records and aggregates incrementally must produce
// exactly the reports of the collect-everything path, and its sink must see
// every episode.
func TestStreamingSinkMatchesBatch(t *testing.T) {
	runCfg := func() Config {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("gaussian"),
		})
		cfg.Parallelism = 3
		return cfg
	}

	batchRunner, err := NewRunner(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := runCfg()
	sink := &collectSink{}
	cfg.Sink = sink
	cfg.DiscardRecords = true
	streamRunner, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	if stream.Records != nil {
		t.Errorf("DiscardRecords kept %d records", len(stream.Records))
	}
	if !reflect.DeepEqual(stream.Reports, batch.Reports) {
		t.Errorf("streaming reports diverged from batch:\n stream %+v\n batch  %+v", stream.Reports, batch.Reports)
	}
	if !sink.closed {
		t.Error("sink never closed")
	}
	// The sink saw every episode; sorted, they are the batch records.
	got := append([]metrics.EpisodeRecord(nil), sink.records...)
	sort.Slice(got, func(a, b int) bool {
		ra, rb := got[a], got[b]
		if ra.Injector != rb.Injector {
			return ra.Injector < rb.Injector
		}
		if ra.Mission != rb.Mission {
			return ra.Mission < rb.Mission
		}
		return ra.Repetition < rb.Repetition
	})
	if !reflect.DeepEqual(got, batch.Records) {
		t.Error("sink records (sorted) diverged from batch records")
	}
}

// TestProgressHookSeesEveryEpisode pins the adaptive-sampling seam: the
// Progress callback fires once per aggregated episode with the cell's
// running Welford VPK, converging on the final report's mean.
func TestProgressHookSeesEveryEpisode(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry("gaussian")})
	cfg.Parallelism = 2
	type update struct {
		cell     string
		episodes int
		mean     float64
	}
	var mu sync.Mutex
	var updates []update
	cfg.Progress = func(p CellProgress) {
		mu.Lock()
		updates = append(updates, update{p.Cell, p.Episodes, p.MeanVPK})
		mu.Unlock()
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(rs.Records) {
		t.Fatalf("progress fired %d times for %d episodes", len(updates), len(rs.Records))
	}
	last := updates[len(updates)-1]
	if last.cell != "gaussian" || last.episodes != len(rs.Records) {
		t.Errorf("final update = %+v", last)
	}
	if math.Abs(last.mean-rs.Reports[0].MeanVPK) > 1e-9 {
		t.Errorf("final running mean %v != report mean %v", last.mean, rs.Reports[0].MeanVPK)
	}
}

// TestProgressReportsViolations pins the violation half of the progress
// hook: every aggregated episode fires with the cell's running violation
// tallies, and the final update matches the report exactly.
func TestProgressReportsViolations(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry("gaussian")})
	cfg.Parallelism = 2
	var mu sync.Mutex
	var updates []CellProgress
	cfg.Progress = func(p CellProgress) {
		mu.Lock()
		updates = append(updates, p)
		mu.Unlock()
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(rs.Records) {
		t.Fatalf("Progress fired %d times for %d episodes", len(updates), len(rs.Records))
	}
	last := updates[len(updates)-1]
	if last.Cell != "gaussian" || last.Episodes != len(rs.Records) {
		t.Errorf("final update = %+v", last)
	}
	if last.Violations != rs.Reports[0].TotalViolations {
		t.Errorf("final running violations %d != report total %d", last.Violations, rs.Reports[0].TotalViolations)
	}
	violEps := 0
	for _, rec := range rs.Records {
		if len(rec.Violations) > 0 {
			violEps++
		}
	}
	if last.ViolationEpisodes != violEps {
		t.Errorf("final violation episodes %d, want %d", last.ViolationEpisodes, violEps)
	}
	if math.Abs(last.MeanVPK-rs.Reports[0].MeanVPK) > 1e-9 {
		t.Errorf("final running mean %v != report mean %v", last.MeanVPK, rs.Reports[0].MeanVPK)
	}
	if want := float64(violEps) / float64(len(rs.Records)); last.ViolationRate() != want {
		t.Errorf("ViolationRate = %v, want %v", last.ViolationRate(), want)
	}
}

func TestSinkErrorFailsCampaign(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Sink = &failingSink{}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Errorf("Run with failing sink = %v, want sink boom", err)
	}
}

type failingSink struct{}

func (failingSink) Consume(metrics.EpisodeRecord) error { return errors.New("sink boom") }
func (failingSink) Close() error                        { return nil }

// blockingSink wedges (blocks, not errors) on its first Consume until
// released — the hung-writer case (dead NFS, unread FIFO).
type blockingSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *blockingSink) Consume(metrics.EpisodeRecord) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return nil
}
func (s *blockingSink) Close() error { return nil }

// TestWedgedSinkDoesNotDefeatCancellation: a sink that blocks forever must
// not make the campaign uncancellable — RunContext returns once cancelled,
// abandoning the pipeline instead of waiting on the wedged writer.
func TestWedgedSinkDoesNotDefeatCancellation(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Parallelism = 2
	sink := &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
	cfg.Sink = sink
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx)
		done <- err
	}()
	<-sink.entered // the aggregation goroutine is now wedged in Consume
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext hung on a wedged sink despite cancellation")
	}
	close(sink.release) // unpark the abandoned aggregation goroutine
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := FormatJSONL.NewRecordSink(&buf)
	recs := []metrics.EpisodeRecord{
		{Injector: "noinject", Mission: 1, Seed: 7, Success: true, DistanceKM: 0.4},
		{Injector: "gaussian", Mission: 2, Seed: 8, DistanceKM: 0.1,
			Violations: []metrics.ViolationRecord{{Kind: "lane", TimeSec: 3}}},
	}
	for _, r := range recs {
		if err := sink.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var back metrics.EpisodeRecord
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if !reflect.DeepEqual(back, recs[i]) {
			t.Errorf("round-trip %d: got %+v, want %+v", i, back, recs[i])
		}
	}
}
