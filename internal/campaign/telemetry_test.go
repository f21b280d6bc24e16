package campaign

import (
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/telemetry"
)

// TestStatusScrapeUnderLoad runs a pooled campaign while hammering its
// /metrics and /statusz endpoints from concurrent scrapers — the race
// detector's view of the whole observability path: atomic instruments,
// histogram snapshots, Runner.Status's pool snapshot, and the exposition
// writer, all interleaved with live episode dispatch.
func TestStatusScrapeUnderLoad(t *testing.T) {
	prev := telemetry.Enabled()
	t.Cleanup(func() { telemetry.SetEnabled(prev) })

	srv, err := telemetry.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName), Registry("gaussian")})
	cfg.Parallelism = 2
	cfg.Pool = workerPool(t, 2)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetStatus("campaign", func() any { return r.Status() })

	if st := r.Status(); st.State != "idle" {
		t.Errorf("pre-run state = %q, want idle", st.State)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + path)
			if err != nil {
				continue // the runner may still be warming up
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Errorf("GET %s = %d, %v", path, resp.StatusCode, err)
				return
			}
			if path == "/metrics" {
				if err := telemetry.LintPrometheus(body); err != nil {
					t.Errorf("mid-run /metrics malformed: %v", err)
					return
				}
			}
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/statusz")

	rs, err := r.Run()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	st := r.Status()
	if st.State != "done" {
		t.Errorf("post-run state = %q, want done", st.State)
	}
	if st.EpisodesDone != len(rs.Records) || st.EpisodesPlanned != len(rs.Records) {
		t.Errorf("status episodes done=%d planned=%d, want %d", st.EpisodesDone, st.EpisodesPlanned, len(rs.Records))
	}
	var cellEpisodes int
	for _, c := range st.Cells {
		cellEpisodes += c.Episodes
		if c.Episodes > 0 && c.MeanSeconds <= 0 {
			t.Errorf("cell %s ran %d episodes with mean duration %v", c.Cell, c.Episodes, c.MeanSeconds)
		}
	}
	if cellEpisodes != len(rs.Records) {
		t.Errorf("per-cell episodes sum to %d, want %d", cellEpisodes, len(rs.Records))
	}
	if telemetry.CampaignEpisodes.Value() == 0 {
		t.Error("campaign episode counter never moved")
	}
	if telemetry.EpisodeSeconds.Snapshot().Total == 0 {
		t.Error("episode duration histogram never observed")
	}
}

// TestResultsIdenticalWithTelemetry pins the observability subsystem's
// zero-interference contract: the same campaign produces a bit-identical
// ResultSet with collection on and off.
func TestResultsIdenticalWithTelemetry(t *testing.T) {
	prev := telemetry.Enabled()
	t.Cleanup(func() { telemetry.SetEnabled(prev) })

	run := func(on bool) *ResultSet {
		telemetry.SetEnabled(on)
		cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName), Registry("gaussian")})
		cfg.Parallelism = 2
		cfg.Pool = workerPool(t, 2)
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
	off := run(false)
	on := run(true)
	if !reflect.DeepEqual(off.Records, on.Records) {
		t.Error("records diverged between telemetry off and on")
	}
	if !reflect.DeepEqual(off.Reports, on.Reports) {
		t.Error("reports diverged between telemetry off and on")
	}
}
