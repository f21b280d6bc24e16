// Package adaptive allocates fault-injection episodes across scenario
// cells by observed risk, instead of sweeping the scenario matrix
// exhaustively.
//
// AVFI's campaigns measure resilience by counting safety violations, but
// an exhaustive sweep spends almost all of its episodes on benign cells;
// Jha et al. ("ML-based Fault Injection for Autonomous Vehicles: A Case
// for Bayesian Fault Injection", arXiv 1907.01051) show that steering
// injection toward high-risk regions of the scenario space finds orders of
// magnitude more violations per episode. This package is the allocation
// half of that loop: given per-cell posteriors (episodes observed,
// violation counts, running VPK statistics), a Policy decides how the next
// round's episode budget is split across cells. The campaign's round loop
// (internal/campaign, Config.Adaptive) owns the other half — dispatching the
// allocated episodes and folding their results back into the posteriors.
//
// Every policy is a pure function of (round, budget, cells, stream):
// allocation uses no global randomness, so a campaign's episode schedule
// is reproducible bit-for-bit from its seed — at any engine-pool size,
// because the posteriors it reads are folded in a deterministic order.
package adaptive

import (
	"fmt"
	"math"
	"sort"

	"github.com/avfi/avfi/internal/rng"
)

// CellStats is the orchestrator's posterior summary for one scenario cell
// — everything a policy may condition its allocation on.
type CellStats struct {
	// Index is the cell's position in the campaign's cell order.
	Index int
	// Key is the cell's column label (diagnostics only; policies must not
	// condition on it).
	Key string
	// Episodes is how many episodes the cell has run so far (including any
	// resumed from a prior partial campaign).
	Episodes int
	// Remaining is how many episodes the cell can still run — its
	// (mission, repetition) pairs not yet consumed. Allocations beyond it
	// are clamped by the orchestrator.
	Remaining int
	// Violations is the total violation count observed in the cell.
	Violations int
	// ViolationEpisodes is how many of the cell's episodes had at least
	// one violation.
	ViolationEpisodes int
	// MeanVPK and StdVPK are the cell's running per-episode
	// violations-per-km statistics.
	MeanVPK float64
	StdVPK  float64
}

// ViolationRate is the fraction of the cell's episodes with at least one
// violation — the bounded [0, 1] risk signal bandit-style policies reward.
func (c CellStats) ViolationRate() float64 {
	if c.Episodes == 0 {
		return 0
	}
	return float64(c.ViolationEpisodes) / float64(c.Episodes)
}

// Policy decides one round's episode allocation.
//
// Allocate returns one count per cell (len(cells) entries, cell order),
// summing to at most budget, with each count within [0, cells[i].Remaining].
// It must be deterministic given its arguments: r is a stream derived from
// the campaign seed and round, and is the only admissible source of
// randomness (tie-breaking, posterior sampling).
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	Allocate(round, budget int, cells []CellStats, r *rng.Stream) []int
}

// Uniform spreads every round's budget evenly over all cells with
// remaining capacity — the exhaustive-sweep baseline. A campaign run with
// Uniform and a full-grid budget executes exactly the episodes of the
// classic static job list.
type Uniform struct{}

// Name implements Policy.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Policy.
func (Uniform) Allocate(round, budget int, cells []CellStats, r *rng.Stream) []int {
	capacity := make([]int, len(cells))
	for i, c := range cells {
		capacity[i] = c.Remaining
	}
	return spread(budget, capacity)
}

// spread hands out budget one episode at a time, round-robin in cell-index
// order, skipping exhausted cells — an even split up to per-cell capacity.
func spread(budget int, capacity []int) []int {
	alloc := make([]int, len(capacity))
	for budget > 0 {
		assigned := false
		for i := range capacity {
			if budget == 0 {
				break
			}
			if alloc[i] < capacity[i] {
				alloc[i]++
				budget--
				assigned = true
			}
		}
		if !assigned {
			break // every cell exhausted
		}
	}
	return alloc
}

// SuccessiveHalving prunes the scenario space geometrically: round k
// spreads its budget over only the ceil(n/2^k) riskiest cells, so
// low-risk cells stop consuming episodes after the first rounds while
// surviving cells are measured ever more precisely. Cells never explored
// rank ahead of everything (a cell must be observed before it can be
// pruned); explored cells rank by violation rate, then mean VPK, then
// index.
type SuccessiveHalving struct{}

// Name implements Policy.
func (SuccessiveHalving) Name() string { return "halving" }

// Allocate implements Policy.
func (SuccessiveHalving) Allocate(round, budget int, cells []CellStats, r *rng.Stream) []int {
	// Geometric schedule: k(0)=n, k(1)=ceil(n/2), ... floor 1.
	keep := len(cells)
	for i := 0; i < round && keep > 1; i++ {
		keep = (keep + 1) / 2
	}

	order := riskOrder(cells)
	alloc := make([]int, len(cells))
	capacity := make([]int, 0, keep)
	chosen := make([]int, 0, keep)
	for _, idx := range order {
		if len(chosen) == keep {
			break
		}
		if cells[idx].Remaining > 0 {
			chosen = append(chosen, idx)
			capacity = append(capacity, cells[idx].Remaining)
		}
	}
	for i, n := range spread(budget, capacity) {
		alloc[chosen[i]] = n
	}
	return alloc
}

// riskOrder returns cell indices sorted riskiest-first: unexplored cells
// lead (index order), then by violation rate, mean VPK, and index — a
// total, deterministic order.
func riskOrder(cells []CellStats) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cells[order[a]], cells[order[b]]
		if (ca.Episodes == 0) != (cb.Episodes == 0) {
			return ca.Episodes == 0
		}
		if ra, rb := ca.ViolationRate(), cb.ViolationRate(); ra != rb {
			return ra > rb
		}
		if ca.MeanVPK != cb.MeanVPK {
			return ca.MeanVPK > cb.MeanVPK
		}
		return ca.Index < cb.Index
	})
	return order
}

// UCB allocates by upper confidence bound on the per-cell violation rate
// (UCB1): each episode of the round goes to the cell maximizing
//
//	rate + C * sqrt(2 ln N / n)
//
// with n the cell's (virtual) episode count and N the running total, so
// unexplored and under-explored cells get optimistic scores and proven
// high-risk cells absorb the bulk of the budget. Within a round the counts
// advance virtually after each assignment — a batch of B episodes lands
// where B sequential UCB pulls would have.
type UCB struct {
	// C scales the exploration bonus; 0 means DefaultUCBC.
	C float64
}

// DefaultUCBC is the default exploration constant — tighter than the
// classic sqrt(2), favoring exploitation at campaign-scale budgets where
// every cell still gets its confidence-driven due.
const DefaultUCBC = 1.0

// Name implements Policy.
func (UCB) Name() string { return "ucb" }

// Allocate implements Policy.
func (p UCB) Allocate(round, budget int, cells []CellStats, r *rng.Stream) []int {
	c := p.C
	if c == 0 {
		c = DefaultUCBC
	}
	alloc := make([]int, len(cells))
	n := make([]float64, len(cells))
	total := 1.0 // avoid ln(0) before anything has run
	for i, cell := range cells {
		n[i] = float64(cell.Episodes)
		total += n[i]
	}
	best := make([]int, 0, len(cells))
	for e := 0; e < budget; e++ {
		bestScore := math.Inf(-1)
		best = best[:0]
		for i, cell := range cells {
			if alloc[i] >= cell.Remaining {
				continue
			}
			score := math.Inf(1)
			if n[i] > 0 {
				score = cell.ViolationRate() + c*math.Sqrt(2*math.Log(total)/n[i])
			}
			if score > bestScore {
				bestScore = score
				best = best[:0]
			}
			if score == bestScore {
				best = append(best, i)
			}
		}
		if len(best) == 0 {
			break // every cell exhausted
		}
		// Deterministic given the campaign seed: ties split via the
		// round's stream, not iteration luck.
		pick := best[0]
		if len(best) > 1 {
			pick = best[r.Intn(len(best))]
		}
		alloc[pick]++
		n[pick]++
		total++
	}
	return alloc
}

// Policies lists the built-in policy names ParsePolicy accepts.
func Policies() []string { return []string{"uniform", "halving", "ucb"} }

// ParsePolicy resolves a CLI policy name.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "halving", "successive-halving":
		return SuccessiveHalving{}, nil
	case "ucb":
		return UCB{}, nil
	default:
		return nil, fmt.Errorf("adaptive: unknown policy %q (want uniform|halving|ucb)", name)
	}
}
