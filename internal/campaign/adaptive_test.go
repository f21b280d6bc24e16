package campaign

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/rng"
)

// TestAdaptiveUniformMatchesExhaustive is the adaptive baseline contract:
// the Uniform policy with a full-grid budget must execute exactly the
// static job list — records and reports bit-identical to the classic
// exhaustive sweep for the same seed.
func TestAdaptiveUniformMatchesExhaustive(t *testing.T) {
	exhaustive, err := NewRunner(tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exhaustive.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	})
	cfg.Adaptive = &AdaptiveConfig{
		Policy:    adaptive.Uniform{},
		RoundSize: 3, // deliberately not a divisor of the grid
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
		t.Error("adaptive-uniform records diverged from the exhaustive sweep")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("adaptive-uniform reports diverged from the exhaustive sweep")
	}
	if got.Adaptive == nil || got.Adaptive.Policy != "uniform" {
		t.Fatalf("Adaptive stats = %+v", got.Adaptive)
	}
	if got.Adaptive.Budget != len(want.Records) {
		t.Errorf("resolved budget = %d, want full grid %d", got.Adaptive.Budget, len(want.Records))
	}
	total := 0
	for _, rs := range got.Adaptive.Rounds {
		total += rs.Episodes
	}
	if total != len(want.Records) {
		t.Errorf("rounds dispatched %d episodes, want %d", total, len(want.Records))
	}
}

// TestAdaptiveBitIdenticalAcrossPoolSizes is the adaptive determinism
// contract: same seed, same policy ⇒ the same episode allocation and the
// same ResultSet, whether the rounds run on one engine or a pool of four.
func TestAdaptiveBitIdenticalAcrossPoolSizes(t *testing.T) {
	run := func(engines int) *ResultSet {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("saltpepper"),
		})
		cfg.Parallelism = 4
		cfg.Pool = PoolConfig{Engines: engines}
		cfg.Adaptive = &AdaptiveConfig{
			Policy:    adaptive.UCB{},
			Budget:    6, // partial budget: allocation actually matters
			RoundSize: 2,
		}
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
	single, pooled := run(1), run(4)
	if !reflect.DeepEqual(single.Records, pooled.Records) {
		t.Error("adaptive records diverged across pool sizes")
	}
	if !reflect.DeepEqual(single.Reports, pooled.Reports) {
		t.Error("adaptive reports diverged across pool sizes")
	}
	if !reflect.DeepEqual(single.Adaptive, pooled.Adaptive) {
		t.Errorf("episode allocation diverged across pool sizes:\n 1 engine: %+v\n 4 engines: %+v",
			single.Adaptive, pooled.Adaptive)
	}
	if got := len(single.Records); got != 6 {
		t.Errorf("ran %d episodes, want the budget's 6", got)
	}
}

// lethalGrid builds a synthetic scenario space for allocation tests: n
// injector columns, with episode execution stubbed so the cell named
// "lethal" yields violationsPer violations every episode and every other
// cell none. No simulator runs; what's under test is purely where the
// budget goes.
func lethalGrid(tb testing.TB, n, missions, reps, violationsPer int) Config {
	tb.Helper()
	var cells []InjectorSource
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("benign%02d", i)
		if i == n/2 {
			name = "lethal"
		}
		cells = append(cells, InjectorSource{Name: name, New: func() interface{} { return struct{}{} }})
	}
	cfg := tinyConfig(tb, cells)
	cfg.Missions = missions
	cfg.Repetitions = reps
	cfg.testRunEpisode = func(_ *engine, j job) (metrics.EpisodeRecord, error) {
		rec := metrics.EpisodeRecord{
			Injector:    cells[j.cellIdx].Name,
			Mission:     j.mission,
			Repetition:  j.repetition,
			Success:     true,
			DistanceKM:  0.5,
			DurationSec: 30,
		}
		if cells[j.cellIdx].Name == "lethal" {
			rec.Success = false
			for v := 0; v < violationsPer; v++ {
				rec.Violations = append(rec.Violations, metrics.ViolationRecord{
					Kind: "lane", TimeSec: float64(v + 1),
				})
			}
		}
		return rec, nil
	}
	return cfg
}

// cellEpisodes returns the named cell's fresh-episode count from the
// adaptive stats.
func cellEpisodes(tb testing.TB, rs *ResultSet, cell string) int {
	tb.Helper()
	for _, c := range rs.Adaptive.Cells {
		if c.Cell == cell {
			return c.Episodes
		}
	}
	tb.Fatalf("cell %q not in adaptive stats", cell)
	return 0
}

// totalViolations sums violations across a result set's reports.
func totalViolations(rs *ResultSet) int {
	total := 0
	for _, rep := range rs.Reports {
		total += rep.TotalViolations
	}
	return total
}

// TestAdaptivePoliciesBeatUniformOnLethalCell is the headline acceptance
// test: on a seeded grid with one known-lethal cell, SuccessiveHalving and
// UCB must each find at least the violations Uniform finds — using half
// Uniform's episode budget — and must give the lethal cell more episodes
// than Uniform does at that same half budget.
func TestAdaptivePoliciesBeatUniformOnLethalCell(t *testing.T) {
	const (
		cells, missions, reps = 8, 8, 4
		violationsPer         = 5
		uniformBudget         = 128 // half the 256-episode grid
		adaptiveBudget        = uniformBudget / 2
		roundSize             = 16
	)
	run := func(policy adaptive.Policy, budget int) *ResultSet {
		cfg := lethalGrid(t, cells, missions, reps, violationsPer)
		cfg.Adaptive = &AdaptiveConfig{
			Policy:    policy,
			Budget:    budget,
			RoundSize: roundSize,
		}
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

	uniform := run(adaptive.Uniform{}, uniformBudget)
	uniformViolations := totalViolations(uniform)
	uniformLethalAtHalf := cellEpisodes(t, run(adaptive.Uniform{}, adaptiveBudget), "lethal")
	if want := uniformBudget / cells * violationsPer; uniformViolations != want {
		t.Fatalf("uniform found %d violations, want the even split's %d", uniformViolations, want)
	}

	for _, policy := range []adaptive.Policy{adaptive.SuccessiveHalving{}, adaptive.UCB{}} {
		rs := run(policy, adaptiveBudget)
		if got := len(rs.Records); got != adaptiveBudget {
			t.Errorf("%s ran %d episodes, want %d", policy.Name(), got, adaptiveBudget)
		}
		if got := totalViolations(rs); got < uniformViolations {
			t.Errorf("%s found %d violations on half budget, want >= uniform's %d on full",
				policy.Name(), got, uniformViolations)
		}
		lethal := cellEpisodes(t, rs, "lethal")
		if lethal <= uniformLethalAtHalf {
			t.Errorf("%s gave the lethal cell %d episodes, want > uniform's %d at the same budget",
				policy.Name(), lethal, uniformLethalAtHalf)
		}
	}
}

// TestAdaptiveRoundProgress pins the per-round observer: rounds arrive in
// order, episode counts sum to the budget, and the running totals match.
func TestAdaptiveRoundProgress(t *testing.T) {
	var rounds []RoundStats
	cfg := lethalGrid(t, 4, 4, 2, 3)
	cfg.Adaptive = &AdaptiveConfig{
		Policy:        adaptive.UCB{},
		Budget:        16,
		RoundSize:     4,
		RoundProgress: func(s RoundStats) { rounds = append(rounds, s) },
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, rs.Adaptive.Rounds) {
		t.Error("RoundProgress diverged from AdaptiveStats.Rounds")
	}
	total, violations := 0, 0
	for i, s := range rounds {
		if s.Round != i {
			t.Errorf("round %d numbered %d", i, s.Round)
		}
		total += s.Episodes
		violations += s.Violations
		if s.TotalEpisodes != total || s.TotalViolations != violations {
			t.Errorf("round %d running totals %d/%d, want %d/%d",
				i, s.TotalEpisodes, s.TotalViolations, total, violations)
		}
	}
	if total != 16 {
		t.Errorf("rounds dispatched %d episodes, want 16", total)
	}
	if violations != totalViolations(rs) {
		t.Errorf("round violations sum to %d, reports say %d", violations, totalViolations(rs))
	}
}

// TestAdaptiveConfigValidation: a bad adaptive config fails at NewRunner
// (and so at Lower, which runs the same spec checks), before any episode
// is dispatched.
func TestAdaptiveConfigValidation(t *testing.T) {
	withAdaptive := func(cfg Config, a AdaptiveConfig) Config {
		cfg.Adaptive = &a
		return cfg
	}
	grid := lethalGrid(t, 2, 2, 1, 1)
	if _, err := NewRunner(withAdaptive(grid, AdaptiveConfig{})); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewRunner(withAdaptive(grid, AdaptiveConfig{
		Policy: adaptive.Uniform{}, Budget: -1,
	})); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := NewRunner(withAdaptive(grid, AdaptiveConfig{
		Policy: adaptive.Uniform{}, RoundSize: -1,
	})); err == nil {
		t.Error("negative round size accepted")
	}

	// Duplicate column keys would alias posteriors; adaptive must refuse
	// what exhaustive sweeps tolerate.
	dup := tinyConfig(t, []InjectorSource{
		{Name: "twin", New: func() interface{} { return struct{}{} }},
		{Name: "twin", New: func() interface{} { return struct{}{} }},
	})
	if _, err := NewRunner(dup); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(withAdaptive(dup, AdaptiveConfig{
		Policy: adaptive.Uniform{},
	})); err == nil || !strings.Contains(err.Error(), "share keys") {
		t.Errorf("duplicate cell keys = %v, want rejection", err)
	}
	dupMatrix := tinyConfig(t, nil)
	dupMatrix.Matrix = &ScenarioMatrix{Injectors: dup.Injectors}
	if _, err := NewRunner(withAdaptive(dupMatrix, AdaptiveConfig{
		Policy: adaptive.Uniform{},
	})); err == nil || !strings.Contains(err.Error(), "share keys") {
		t.Errorf("duplicate matrix cell labels = %v, want rejection", err)
	}

	// The same checks refuse a spec at Lower (a 400 from POST /campaigns).
	for name, spec := range map[string]CampaignSpec{
		"negative budget":     {Injectors: []string{"noinject"}, Adaptive: &AdaptiveSpec{Policy: "ucb", Budget: -1}},
		"negative round size": {Injectors: []string{"noinject"}, Adaptive: &AdaptiveSpec{Policy: "ucb", RoundSize: -1}},
		"duplicate columns":   {Injectors: []string{"gaussian", "gaussian"}, Adaptive: &AdaptiveSpec{Policy: "uniform"}},
	} {
		spec.Missions, spec.Repetitions = 1, 1
		if _, err := spec.Lower(); err == nil {
			t.Errorf("Lower accepted a spec with %s", name)
		}
	}
}

// TestAdaptiveExternalCancel: cancelling the context aborts the round loop
// with the cause, as it aborts a sweep.
func TestAdaptiveExternalCancel(t *testing.T) {
	cfg := lethalGrid(t, 2, 2, 2, 1)
	cfg.Adaptive = &AdaptiveConfig{Policy: adaptive.Uniform{}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx); err != context.Canceled {
		t.Errorf("adaptive RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// shortPolicy allocates one cell too few, a malformed plan.
type shortPolicy struct{ adaptive.Uniform }

func (shortPolicy) Allocate(_, _ int, cells []adaptive.CellStats, _ *rng.Stream) []int {
	return make([]int, len(cells)-1)
}

// TestAdaptivePolicyErrorFailsRun: a malformed allocation fails the run
// with the policy's error through the shared teardown, and the status
// reads failed.
func TestAdaptivePolicyErrorFailsRun(t *testing.T) {
	cfg := lethalGrid(t, 2, 2, 2, 1)
	cfg.Adaptive = &AdaptiveConfig{Policy: shortPolicy{}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "allocated 1 cells, want 2") {
		t.Fatalf("Run = %v, want the malformed allocation's error", err)
	}
	if st := r.Status(); st.State != "failed" || st.Mode != "adaptive" || !strings.Contains(st.Err, "allocated") {
		t.Errorf("status = %s/%s %q, want failed/adaptive with the policy error", st.State, st.Mode, st.Err)
	}
}
