package campaign

import (
	"sync"
	"time"
)

// CampaignStatus is a point-in-time snapshot of a running (or finished)
// campaign, built by Runner.Status for the /statusz endpoint: overall
// progress, per-engine health, per-cell episode timing, and — for an
// adaptive run — the live round state. Safe to request from any goroutine
// at any time, including while no run is active.
type CampaignStatus struct {
	// State is "idle" (no run started), "running", "done", or "failed".
	State string `json:"state"`
	// Mode is "sweep", or "adaptive" when Config.Adaptive is set; empty
	// while idle.
	Mode string `json:"mode,omitempty"`
	// ElapsedSec is wall-clock seconds since the run began (total run
	// duration once it finished).
	ElapsedSec float64 `json:"elapsed_sec"`
	// EpisodesPlanned is the run's fresh-episode count: the pending job
	// list for sweeps, the resolved budget for adaptive runs.
	EpisodesPlanned int `json:"episodes_planned"`
	// EpisodesDone counts fresh episodes finished so far.
	EpisodesDone int `json:"episodes_done"`
	// Retries and Replacements mirror PoolStats for the run in flight.
	Retries      int `json:"retries"`
	Replacements int `json:"replacements"`
	// Engines is the live per-engine breakdown (client-side counters and
	// the Backend address for remote slots), live slots then retired.
	Engines []EngineStats `json:"engines,omitempty"`
	// Cells holds per-cell progress and mean episode duration — the raw
	// signal a cost-aware allocation policy would consume.
	Cells []CellStatus `json:"cells,omitempty"`
	// Adaptive is the round loop's state; nil for exhaustive sweeps.
	Adaptive *AdaptiveStatus `json:"adaptive,omitempty"`
	// Err is the run's failure message once State is "failed".
	Err string `json:"err,omitempty"`
}

// CellStatus is one scenario cell's live progress.
type CellStatus struct {
	// Cell is the scenario column label.
	Cell string `json:"cell"`
	// Episodes counts the cell's fresh episodes finished so far.
	Episodes int `json:"episodes"`
	// MeanSeconds is the running mean episode wall-clock duration.
	MeanSeconds float64 `json:"mean_seconds"`
}

// AdaptiveStatus is the adaptive round loop's live state.
type AdaptiveStatus struct {
	// Policy is the allocation policy's name.
	Policy string `json:"policy"`
	// Budget is the resolved total episode budget.
	Budget int `json:"budget"`
	// Round is the last finished round's number (rounds count from 0; -1
	// before the first round completes).
	Round int `json:"round"`
	// Spent is how many budget episodes have been dispatched.
	Spent int `json:"spent"`
	// TotalViolations accumulates violations across rounds.
	TotalViolations int `json:"total_violations"`
}

// runnerStatus is the mutable state behind Runner.Status. The pool pointer
// lets Status snapshot per-engine stats live (enginePool has its own
// mutex); everything else is guarded here.
type runnerStatus struct {
	mu       sync.Mutex
	state    string
	mode     string
	started  time.Time
	finished time.Time
	planned  int
	done     int
	cells    []cellTrack
	pool     *enginePool
	adaptive *AdaptiveStatus
	errMsg   string
}

// cellTrack accumulates one cell's episode count and total duration.
type cellTrack struct {
	episodes int
	sumSec   float64
}

// beginRun marks a run started on the given pool.
func (r *Runner) beginRun(mode string, planned int, pool *enginePool) {
	s := &r.status
	s.mu.Lock()
	s.state = "running"
	s.mode = mode
	s.started = time.Now()
	s.finished = time.Time{}
	s.planned = planned
	s.done = 0
	s.cells = make([]cellTrack, len(r.cells))
	s.pool = pool
	s.adaptive = nil
	s.errMsg = ""
	s.mu.Unlock()
}

// noteEpisode folds one finished episode's duration into the status.
func (r *Runner) noteEpisode(cellIdx int, d time.Duration) {
	s := &r.status
	s.mu.Lock()
	if cellIdx < len(s.cells) {
		s.cells[cellIdx].episodes++
		s.cells[cellIdx].sumSec += d.Seconds()
	}
	s.done++
	s.mu.Unlock()
}

// setAdaptive publishes the adaptive round loop's state after each round.
func (r *Runner) setAdaptive(a AdaptiveStatus) {
	s := &r.status
	s.mu.Lock()
	s.adaptive = &a
	s.mu.Unlock()
}

// endRun marks the run finished; the pool reference is dropped because the
// engines are torn down.
func (r *Runner) endRun(err error) {
	s := &r.status
	s.mu.Lock()
	s.finished = time.Now()
	s.pool = nil
	if err != nil {
		s.state = "failed"
		s.errMsg = err.Error()
	} else {
		s.state = "done"
	}
	s.mu.Unlock()
}

// Status snapshots the campaign's live progress. It is safe to call from
// any goroutine at any time — the /statusz scrape path — and costs one
// mutex hold plus, while a run is active, one pool snapshot.
func (r *Runner) Status() CampaignStatus {
	s := &r.status
	s.mu.Lock()
	st := CampaignStatus{
		State:           s.state,
		Mode:            s.mode,
		EpisodesPlanned: s.planned,
		EpisodesDone:    s.done,
		Err:             s.errMsg,
	}
	if st.State == "" {
		st.State = "idle"
	}
	switch {
	case s.started.IsZero():
	case s.finished.IsZero():
		st.ElapsedSec = time.Since(s.started).Seconds()
	default:
		st.ElapsedSec = s.finished.Sub(s.started).Seconds()
	}
	for i, c := range s.cells {
		cs := CellStatus{Cell: r.cells[i].key, Episodes: c.episodes}
		if c.episodes > 0 {
			cs.MeanSeconds = c.sumSec / float64(c.episodes)
		}
		st.Cells = append(st.Cells, cs)
	}
	if s.adaptive != nil {
		a := *s.adaptive
		st.Adaptive = &a
	}
	pool := s.pool
	s.mu.Unlock()

	if pool != nil {
		ps, _ := pool.snapshot()
		st.Engines = ps.Engines
		st.Retries = ps.Retries
		st.Replacements = ps.Replacements
	}
	return st
}
