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

// AdaptiveConfig parameterizes an adaptive campaign (Config.Adaptive).
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

// roundLoop is an adaptive run's plan -> observe -> reallocate state:
// instead of sweeping the full (cell x mission x repetition) grid, it runs
// rounds of episodes whose allocation over cells the configured policy
// chooses from the posteriors observed so far. RunContext drives it on the
// same engine pool, pipeline and teardown as a sweep, so sinks, progress
// hooks and DiscardRecords behave exactly alike.
//
// With the Uniform policy and a full-grid budget the loop dispatches
// exactly the sweep's jobs, and the ResultSet's records and reports are
// bit-identical to the sweep's for the same Config.
type roundLoop struct {
	cfg        AdaptiveConfig
	r          *Runner
	cellIdx    map[string]int
	posteriors []cellPosterior
	// budget and roundSize are the resolved episode budget and round size.
	budget, roundSize int
}

// newRoundLoop starts Config.Adaptive's loop with empty posteriors.
func (r *Runner) newRoundLoop() *roundLoop {
	return &roundLoop{cfg: *r.cfg.Adaptive, r: r, cellIdx: cellIndex(r.cells),
		posteriors: make([]cellPosterior, len(r.cells))}
}

// observe folds one episode into its cell's posterior and returns the
// cell. Resumed episodes fold in their log's fixed stream order and each
// round's in sorted order, so the Welford state is schedule-independent.
func (l *roundLoop) observe(rec metrics.EpisodeRecord) int {
	i := l.cellIdx[rec.Injector]
	l.posteriors[i].fold(rec)
	return i
}

// resolve sizes the budget and round against the remaining grid.
func (l *roundLoop) resolve(remaining int) {
	l.budget = l.cfg.Budget
	if l.budget == 0 || l.budget > remaining {
		l.budget = remaining
	}
	l.roundSize = l.cfg.RoundSize
	if l.roundSize == 0 {
		l.roundSize = max(len(l.r.cells), l.budget/8)
	}
}

// run dispatches rounds on sess, popping each round's jobs from the
// per-cell queues, until the budget is spent, the policy stops
// allocating, or ctx is cancelled. A policy that allocates the wrong
// number of cells cancels the run with that error.
func (l *roundLoop) run(ctx context.Context, cancel context.CancelCauseFunc, sess *runSession,
	consume func(context.Context, metrics.EpisodeRecord), queues [][]job) *AdaptiveStats {
	cells := l.r.cells
	telemetry.Infof("campaign: adaptive run started: policy %s, budget %d over %d cells, round size %d",
		l.cfg.Policy.Name(), l.budget, len(cells), l.roundSize)
	astats := &AdaptiveStats{Policy: l.cfg.Policy.Name(), Budget: l.budget}
	for _, c := range cells {
		astats.Cells = append(astats.Cells, CellBudget{Cell: c.key})
	}
	l.r.setAdaptive(AdaptiveStatus{Policy: astats.Policy, Budget: l.budget, Round: -1})
	stream := rng.New(l.r.cfg.Seed).Split("adaptive")

	spent, totalViolations := 0, 0
	for round := 0; spent < l.budget; round++ {
		b := min(l.roundSize, l.budget-spent)

		// Plan: snapshot posteriors, let the policy split the round budget.
		cellStats := make([]adaptive.CellStats, len(cells))
		for i := range cells {
			p := &l.posteriors[i]
			cellStats[i] = adaptive.CellStats{
				Index:             i,
				Key:               cells[i].key,
				Episodes:          p.episodes,
				Remaining:         len(queues[i]),
				Violations:        p.violations,
				ViolationEpisodes: p.violEpisodes,
				MeanVPK:           p.vpk.Mean(),
				StdVPK:            p.vpk.StdDev(),
			}
		}
		alloc := l.cfg.Policy.Allocate(round, b, cellStats, stream.SplitN(uint64(round)))
		if len(alloc) != len(cells) {
			cancel(fmt.Errorf("campaign: adaptive: policy %s allocated %d cells, want %d",
				l.cfg.Policy.Name(), len(alloc), len(cells)))
			return astats
		}
		var jobs []job
		active := 0
		for i, n := range alloc {
			n = min(n, len(queues[i]))
			if n <= 0 {
				continue
			}
			active++
			jobs = append(jobs, queues[i][:n]...)
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
			consume(ctx, rec)
			mu.Lock()
			roundRecs = append(roundRecs, rec)
			mu.Unlock()
		})
		if context.Cause(ctx) != nil {
			return astats
		}

		// Reallocate inputs: fold the round into the posteriors in
		// deterministic order, so the next plan is schedule-independent.
		sortRecords(roundRecs)
		roundViolations := 0
		for _, rec := range roundRecs {
			i := l.observe(rec)
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
		l.r.setAdaptive(AdaptiveStatus{
			Policy:          astats.Policy,
			Budget:          l.budget,
			Round:           round,
			Spent:           spent,
			TotalViolations: totalViolations,
		})
		if l.cfg.RoundProgress != nil {
			l.cfg.RoundProgress(rs)
		}
	}
	return astats
}
