package campaign

import (
	"io"
	"reflect"
	"testing"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
)

// sliceSource streams an in-memory record slice as a RecordSource.
type sliceSource struct {
	recs []metrics.EpisodeRecord
}

// Read implements RecordSource.
func (s *sliceSource) Read() (metrics.EpisodeRecord, error) {
	if len(s.recs) == 0 {
		return metrics.EpisodeRecord{}, io.EOF
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// resumeBase is the campaign both resume tests continue.
func resumeBase(t *testing.T) Config {
	cfg := tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	})
	cfg.Parallelism = 2
	return cfg
}

// TestResumeSkipsRecordedEpisodes is the resume contract: a campaign
// seeded with a partial record log runs only the missing episodes, and
// finishes with records and reports bit-identical to the uninterrupted
// run.
func TestResumeSkipsRecordedEpisodes(t *testing.T) {
	full, err := NewRunner(resumeBase(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Resume from roughly half the log.
	half := append([]metrics.EpisodeRecord(nil), want.Records[:len(want.Records)/2]...)
	cfg := resumeBase(t)
	cfg.ResumeFrom = &sliceSource{recs: half}
	sink := &collectSink{}
	cfg.Sink = sink
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("resumed records diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("resumed reports diverged from the uninterrupted run")
	}
	// Only the fresh episodes ran and only they hit the sink: the resumed
	// half is already on record.
	fresh := len(want.Records) - len(half)
	if got.Engine.Episodes != fresh {
		t.Errorf("resumed campaign ran %d episodes, want %d", got.Engine.Episodes, fresh)
	}
	if len(sink.records) != fresh {
		t.Errorf("sink saw %d records, want only the %d fresh ones", len(sink.records), fresh)
	}
}

// TestResumeCompleteLogRunsNothing: resuming from a complete log is a
// no-op sweep that still reproduces the full ResultSet.
func TestResumeCompleteLogRunsNothing(t *testing.T) {
	full, err := NewRunner(resumeBase(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeBase(t)
	cfg.ResumeFrom = &sliceSource{recs: want.Records}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Episodes != 0 {
		t.Errorf("complete-log resume ran %d episodes, want 0", got.Engine.Episodes)
	}
	if !reflect.DeepEqual(got.Records, want.Records) || !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("complete-log resume diverged from the original run")
	}
}

// TestResumeIgnoresForeignRecords: records from a different configuration
// (unknown column, out-of-range slots) must not poison the campaign.
func TestResumeIgnoresForeignRecords(t *testing.T) {
	want, err := NewRunner(resumeBase(t))
	if err != nil {
		t.Fatal(err)
	}
	wantRS, err := want.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeBase(t)
	cfg.ResumeFrom = &sliceSource{recs: []metrics.EpisodeRecord{
		{Injector: "from-another-campaign", Mission: 0, Repetition: 0},
		{Injector: fault.NoopName, Mission: 99, Repetition: 0},
		{Injector: fault.NoopName, Mission: 0, Repetition: -1},
	}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, wantRS.Records) {
		t.Error("foreign resume records leaked into the campaign")
	}
}

// TestAdaptiveResumeSeedsPosteriors: an adaptive campaign resumed from a
// partial log (a) never re-runs recorded slots, (b) still ends with the
// full-grid ResultSet under Uniform + full budget, and (c) counts only
// fresh episodes against the budget.
func TestAdaptiveResumeSeedsPosteriors(t *testing.T) {
	full, err := NewRunner(resumeBase(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	half := append([]metrics.EpisodeRecord(nil), want.Records[:len(want.Records)/2]...)
	cfg := resumeBase(t)
	cfg.ResumeFrom = &sliceSource{recs: half}
	cfg.Adaptive = &AdaptiveConfig{
		Policy:    adaptive.Uniform{},
		RoundSize: 3,
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("adaptive resume diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("adaptive resume reports diverged")
	}
	fresh := len(want.Records) - len(half)
	if got.Adaptive.Budget != fresh {
		t.Errorf("resolved budget = %d, want the %d un-recorded episodes", got.Adaptive.Budget, fresh)
	}
	if got.Engine.Episodes != fresh {
		t.Errorf("ran %d episodes, want %d", got.Engine.Episodes, fresh)
	}
}
