// Adaptive campaign orchestration: a round-based plan -> observe ->
// reallocate loop over the scenario matrix, replacing the static job list
// with risk-driven episode allocation (Jha et al., arXiv 1907.01051).
// Each round dispatches a batch through the same persistent engine pool an
// exhaustive sweep uses — started once, reused every round — folds the
// finished episodes into per-cell posteriors, and lets an
// adaptive.Policy decide where the next round's budget goes. The whole
// loop is a pure function of the campaign seed: posteriors are folded in
// a deterministic order regardless of engine-pool size or scheduling, so
// the episode allocation (and therefore the ResultSet) reproduces
// bit-identically.

package campaign

import (
	"context"
	"fmt"
	"sync"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/stats"
	"github.com/avfi/avfi/internal/telemetry"
)

// AdaptiveConfig parameterizes RunAdaptive.
type AdaptiveConfig struct {
	// Policy allocates each round's episode budget across scenario cells
	// (see internal/adaptive: Uniform, SuccessiveHalving, UCB).
	Policy adaptive.Policy
	// Budget is the total number of fresh episodes to run; episodes seeded
	// via Config.ResumeFrom don't count against it. 0, or anything beyond
	// the campaign's remaining grid, means the full remaining grid.
	Budget int
	// RoundSize is how many episodes each plan->observe->reallocate round
	// dispatches. 0 picks a default: one episode per cell or an eighth of
	// the budget, whichever is larger. Smaller rounds react to risk
	// faster; larger rounds parallelize better.
	RoundSize int
	// RoundProgress, when non-nil, observes each finished round (called
	// between rounds, from the orchestrating goroutine).
	RoundProgress func(RoundStats)
}

// RoundStats summarizes one adaptive round.
type RoundStats struct {
	// Round numbers rounds from 0.
	Round int
	// Episodes is how many episodes the round dispatched.
	Episodes int
	// ActiveCells is how many cells received a non-zero allocation.
	ActiveCells int
	// Violations is the total violation count observed this round.
	Violations int
	// TotalEpisodes and TotalViolations accumulate across rounds
	// (fresh episodes only; resumed episodes are not this run's work).
	TotalEpisodes   int
	TotalViolations int
}

// CellBudget is one cell's share of an adaptive campaign's work.
type CellBudget struct {
	// Cell is the scenario column label.
	Cell string
	// Episodes is how many fresh episodes the policy allocated to the cell.
	Episodes int
	// Violations is the total violation count those episodes produced.
	Violations int
}

// AdaptiveStats reports an adaptive campaign's allocation — how the
// policy spent the budget over rounds and cells.
type AdaptiveStats struct {
	// Policy is the allocation policy's name.
	Policy string
	// Budget is the resolved total episode budget.
	Budget int
	// Rounds holds per-round statistics in order.
	Rounds []RoundStats
	// Cells holds per-cell allocation in campaign cell order.
	Cells []CellBudget
}

// cellPosterior accumulates one cell's observed statistics. Fold order is
// deterministic — each round's records are sorted before folding, and
// resumed records fold in their log's fixed stream order — so the
// floating-point Welford state is identical at any pool size.
type cellPosterior struct {
	episodes     int
	violations   int
	violEpisodes int
	vpk          stats.Welford
}

// fold adds one episode's outcome.
func (p *cellPosterior) fold(rec metrics.EpisodeRecord) {
	p.episodes++
	p.violations += len(rec.Violations)
	if len(rec.Violations) > 0 {
		p.violEpisodes++
	}
	p.vpk.Add(rec.VPK())
}

// RunAdaptive executes a risk-driven campaign: instead of sweeping the
// full (cell x mission x repetition) grid, it runs rounds of episodes
// whose allocation over cells the configured policy chooses from the
// posteriors observed so far. All rounds share one engine pool (started
// once, like an exhaustive sweep's) and one streaming results pipeline,
// so sinks, progress hooks and DiscardRecords behave exactly as under
// RunContext. The returned ResultSet carries the usual records/reports
// (covering the episodes actually run) plus AdaptiveStats.
//
// With the Uniform policy and a full-grid budget the campaign executes
// exactly the static job list, and its ResultSet records and reports are
// bit-identical to RunContext's for the same Config.
func (r *Runner) RunAdaptive(ctx context.Context, acfg AdaptiveConfig) (*ResultSet, error) {
	if acfg.Policy == nil {
		return nil, fmt.Errorf("campaign: adaptive: no policy")
	}
	if acfg.Budget < 0 || acfg.RoundSize < 0 {
		return nil, fmt.Errorf("campaign: adaptive: budget=%d roundSize=%d must be non-negative",
			acfg.Budget, acfg.RoundSize)
	}
	// Duplicate column keys would fold every record into the first
	// matching posterior, leaving its twin reading as forever-unexplored —
	// an allocation trap exhaustive sweeps don't have, so reject what
	// Validate tolerates for them.
	cellIdx := r.cellIndex()
	if len(cellIdx) != len(r.cells) {
		return nil, fmt.Errorf("campaign: adaptive: %d of %d scenario columns share keys; adaptive allocation needs distinct cells",
			len(r.cells)-len(cellIdx), len(r.cells))
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	pipe := newSinkPipeline(r.cells, r.sinkLanes(), !r.cfg.DiscardRecords,
		func(err error) { cancel(err) }, r.cfg.Progress)

	// Posteriors start from the resumed episodes, folded in stream order
	// as they seed the pipeline — one pass, no materialized record slice.
	// For a given resume log the order (and so the Welford float state) is
	// fixed, and fresh rounds still fold in sorted order below.
	posteriors := make([]cellPosterior, len(r.cells))
	skip, err := r.seedResume(func(rec metrics.EpisodeRecord) {
		pipe.seed(rec)
		posteriors[cellIdx[rec.Injector]].fold(rec)
	})
	if err != nil {
		pipe.abandon()
		return nil, err
	}

	// Per-cell queues of unconsumed (mission, repetition) slots, in the
	// static sweep's order (mission-major); resume-recorded slots are
	// already consumed.
	perCell := len(r.missions) * r.cfg.Repetitions
	queues := make([][]pairKey, len(r.cells))
	remaining := 0
	for i := range r.cells {
		for p := 0; p < perCell; p++ {
			k := pairKey{cell: i, mission: p / r.cfg.Repetitions, repetition: p % r.cfg.Repetitions}
			if !skip[k] {
				queues[i] = append(queues[i], k)
			}
		}
		remaining += len(queues[i])
	}

	budget := acfg.Budget
	if budget == 0 || budget > remaining {
		budget = remaining
	}
	roundSize := acfg.RoundSize
	if roundSize == 0 {
		roundSize = len(r.cells)
		if b := budget / 8; b > roundSize {
			roundSize = b
		}
	}

	maxBatch := roundSize
	if maxBatch > budget {
		maxBatch = budget
	}
	sess, err := r.newRunSession(maxBatch)
	if err != nil {
		pipe.abandon()
		return nil, err
	}
	r.beginRun("adaptive", budget, sess.pool)
	telemetry.Infof("campaign: adaptive run started: policy %s, budget %d over %d cells, round size %d",
		acfg.Policy.Name(), budget, len(r.cells), roundSize)
	pipe.start(sess.parallelism)

	astats := &AdaptiveStats{Policy: acfg.Policy.Name(), Budget: budget}
	for _, c := range r.cells {
		astats.Cells = append(astats.Cells, CellBudget{Cell: c.key})
	}
	stream := rng.New(r.cfg.Seed).Split("adaptive")

	spent, totalViolations := 0, 0
	for round := 0; spent < budget; round++ {
		b := roundSize
		if left := budget - spent; b > left {
			b = left
		}

		// Plan: snapshot posteriors, let the policy split the round budget.
		cellStats := make([]adaptive.CellStats, len(r.cells))
		for i := range r.cells {
			p := &posteriors[i]
			cellStats[i] = adaptive.CellStats{
				Index:             i,
				Key:               r.cells[i].key,
				Episodes:          p.episodes,
				Remaining:         len(queues[i]),
				Violations:        p.violations,
				ViolationEpisodes: p.violEpisodes,
				MeanVPK:           p.vpk.Mean(),
				StdVPK:            p.vpk.StdDev(),
			}
		}
		alloc := acfg.Policy.Allocate(round, b, cellStats, stream.SplitN(uint64(round)))
		if len(alloc) != len(r.cells) {
			sess.close()
			pipe.abandon()
			err := fmt.Errorf("campaign: adaptive: policy %s allocated %d cells, want %d",
				acfg.Policy.Name(), len(alloc), len(r.cells))
			r.endRun(err)
			return nil, err
		}
		var jobs []job
		active := 0
		for i, n := range alloc {
			if n <= 0 {
				continue
			}
			if n > len(queues[i]) {
				n = len(queues[i])
			}
			if n > 0 {
				active++
			}
			for _, k := range queues[i][:n] {
				jobs = append(jobs, job{cellIdx: k.cell, mission: k.mission, repetition: k.repetition})
			}
			queues[i] = queues[i][n:]
		}
		if len(jobs) == 0 {
			// The policy stopped allocating (or every cell it wanted is
			// exhausted): the campaign ends early with the budget unspent.
			break
		}

		// Observe: dispatch the round on the shared pool, collecting its
		// records alongside the streaming pipeline.
		var mu sync.Mutex
		var roundRecs []metrics.EpisodeRecord
		sess.runJobs(ctx, cancel, jobs, func(ctx context.Context, rec metrics.EpisodeRecord) {
			pipe.consume(ctx, rec)
			mu.Lock()
			roundRecs = append(roundRecs, rec)
			mu.Unlock()
		})
		if cause := context.Cause(ctx); cause != nil {
			sess.close()
			pipe.abandon()
			r.endRun(cause)
			return nil, cause
		}

		// Reallocate inputs: fold the round into the posteriors in
		// deterministic order, so the next plan is schedule-independent.
		sortRecords(roundRecs)
		roundViolations := 0
		for _, rec := range roundRecs {
			i := cellIdx[rec.Injector]
			posteriors[i].fold(rec)
			astats.Cells[i].Episodes++
			astats.Cells[i].Violations += len(rec.Violations)
			roundViolations += len(rec.Violations)
		}
		spent += len(jobs)
		totalViolations += roundViolations
		rs := RoundStats{
			Round:           round,
			Episodes:        len(jobs),
			ActiveCells:     active,
			Violations:      roundViolations,
			TotalEpisodes:   spent,
			TotalViolations: totalViolations,
		}
		astats.Rounds = append(astats.Rounds, rs)
		r.setAdaptive(AdaptiveStatus{
			Policy:          astats.Policy,
			Budget:          budget,
			Round:           round,
			Spent:           spent,
			TotalViolations: totalViolations,
		})
		if acfg.RoundProgress != nil {
			acfg.RoundProgress(rs)
		}
	}

	poolStats, engineAgg := sess.pool.snapshot()
	closeErr := sess.close()
	if cause := context.Cause(ctx); cause != nil {
		pipe.abandon()
		r.endRun(cause)
		return nil, cause
	}
	records, reports, sinkErr := pipe.finish()
	if closeErr != nil {
		r.endRun(closeErr)
		return nil, closeErr
	}
	if sinkErr != nil {
		r.endRun(sinkErr)
		return nil, sinkErr
	}
	r.endRun(nil)
	return &ResultSet{
		Records:  records,
		Reports:  reports,
		Engine:   engineAgg,
		Pool:     poolStats,
		Adaptive: astats,
	}, nil
}
