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
func cellIndex(cells []runCell) map[string]int {
	idx := make(map[string]int, len(cells))
	for i, c := range cells {
		if _, ok := idx[c.key]; !ok {
			idx[c.key] = i
		}
	}
	return idx
}

// seedResume streams the configured resume records, reconciling each
// against this campaign's grid and handing the usable ones to seedFn one
// at a time — the O(1)-memory resume path. It returns the set of slots on
// record, which pendingSlots leaves out of the campaign's jobs. Records
// for unknown columns or out-of-range slots are dropped (they belong to a
// different configuration), and duplicate slots keep the first record.
func (r *Runner) seedResume(seedFn func(metrics.EpisodeRecord)) (map[pairKey]bool, error) {
	src := r.cfg.ResumeFrom
	if src == nil {
		return nil, nil
	}
	cellIdx := cellIndex(r.cells)
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

// pendingSlots lists the episode slots not on record, in the static
// sweep's order (cell, then mission, then repetition): pending is the
// sweep's job list, and queues cuts the same slots into one queue per
// cell, which the adaptive round loop pops from the front.
func (r *Runner) pendingSlots(skip map[pairKey]bool) (pending []job, queues [][]job) {
	pending = make([]job, 0, len(r.cells)*len(r.missions)*r.cfg.Repetitions)
	queues = make([][]job, len(r.cells))
	for i := range r.cells {
		start := len(pending)
		for m := range r.missions {
			for rep := 0; rep < r.cfg.Repetitions; rep++ {
				if !skip[pairKey{cell: i, mission: m, repetition: rep}] {
					pending = append(pending, job{cellIdx: i, mission: m, repetition: rep})
				}
			}
		}
		queues[i] = pending[start:len(pending):len(pending)]
	}
	return pending, queues
}
