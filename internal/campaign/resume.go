// Campaign resume: the binary record log is a durable per-episode log, so
// a partial campaign — killed mid-sweep, crashed mid-write — can be picked
// up where it stopped instead of re-running finished episodes.
// Config.ResumeFrom streams the partial log (OpenRecordsPath: one file or
// a shard directory) into the runner, which seeds its aggregates (and, for
// adaptive campaigns, its posteriors) from the recorded episodes and
// dispatches only the (cell, mission, repetition) slots not yet on record.
// Episodes are pure functions of their seeds, so a resumed campaign
// finishes with results bit-identical to an uninterrupted run.

package campaign

import (
	"io"

	"github.com/avfi/avfi/internal/metrics"
)

// pairKey identifies one episode slot of the campaign grid.
type pairKey struct {
	cell       int
	mission    int
	repetition int
}

// cellIndex maps each scenario column key to its first cell index.
func (r *Runner) cellIndex() map[string]int {
	idx := make(map[string]int, len(r.cells))
	for i, c := range r.cells {
		if _, ok := idx[c.key]; !ok {
			idx[c.key] = i
		}
	}
	return idx
}

// seedResume streams the configured resume records, reconciling each
// against this campaign's grid and handing the usable ones to seedFn one
// at a time — the O(1)-memory resume path. It returns the set of slots on
// record, which pendingJobs subtracts from the sweep. Records for unknown
// columns or out-of-range slots are dropped (they belong to a different
// configuration), and duplicate slots keep the first record.
func (r *Runner) seedResume(seedFn func(metrics.EpisodeRecord)) (map[pairKey]bool, error) {
	src := r.cfg.ResumeFrom
	if src == nil {
		return nil, nil
	}
	cellIdx := r.cellIndex()
	skip := make(map[pairKey]bool)
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return skip, nil
		}
		if err != nil {
			return nil, err
		}
		ci, ok := cellIdx[rec.Injector]
		if !ok || rec.Mission < 0 || rec.Mission >= len(r.missions) ||
			rec.Repetition < 0 || rec.Repetition >= r.cfg.Repetitions {
			continue
		}
		k := pairKey{cell: ci, mission: rec.Mission, repetition: rec.Repetition}
		if skip[k] {
			continue
		}
		skip[k] = true
		seedFn(rec)
	}
}

// pendingJobs is the campaign's static job list minus the slots already on
// record.
func (r *Runner) pendingJobs(skip map[pairKey]bool) []job {
	jobs := r.jobs()
	if len(skip) == 0 {
		return jobs
	}
	pending := jobs[:0]
	for _, j := range jobs {
		if !skip[pairKey{cell: j.cellIdx, mission: j.mission, repetition: j.repetition}] {
			pending = append(pending, j)
		}
	}
	return pending
}
