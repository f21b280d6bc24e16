package campaign

import (
	"reflect"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/world"
)

func TestScenarioMatrixCells(t *testing.T) {
	m := ScenarioMatrix{
		Weathers:         []world.Weather{world.WeatherClear, world.WeatherRain},
		Densities:        []Density{{}, {NPCs: 4, Pedestrians: 2}},
		AEB:              []bool{false, true},
		ActivationFrames: []int{0, 30},
		Injectors:        []InjectorSource{Registry(fault.NoopName), Registry("gaussian")},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := m.Cells()
	if len(cells) != m.Size() || len(cells) != 2*2*2*2*2 {
		t.Fatalf("cells = %d, Size = %d, want 32", len(cells), m.Size())
	}
	seen := map[string]bool{}
	for _, c := range cells {
		label := c.Label()
		if seen[label] {
			t.Errorf("duplicate cell label %q", label)
		}
		seen[label] = true
	}
	// Activation frames wrap through Windowed: name and TTV bookkeeping.
	var windowed, immediate int
	for _, c := range cells {
		if c.Injector.InjectionFrame == 30 {
			windowed++
			if !strings.Contains(c.Injector.Name, "@30") {
				t.Errorf("windowed cell not renamed: %q", c.Injector.Name)
			}
		} else if c.Injector.InjectionFrame == 0 {
			immediate++
		}
	}
	if windowed != 16 || immediate != 16 {
		t.Errorf("windowed/immediate = %d/%d, want 16/16", windowed, immediate)
	}
}

func TestScenarioMatrixDefaults(t *testing.T) {
	m := ScenarioMatrix{Injectors: []InjectorSource{Registry(fault.NoopName)}}
	cells := m.Cells()
	if len(cells) != 1 {
		t.Fatalf("degenerate matrix expands to %d cells", len(cells))
	}
	c := cells[0]
	if c.Weather != world.WeatherClear || c.Density != (Density{}) || c.AEB {
		t.Errorf("neutral defaults not applied: %+v", c)
	}
}

func TestScenarioMatrixValidate(t *testing.T) {
	if err := (ScenarioMatrix{}).Validate(); err == nil {
		t.Error("empty matrix accepted")
	}
	bad := ScenarioMatrix{
		Injectors:        []InjectorSource{Registry(fault.NoopName)},
		ActivationFrames: []int{-1},
	}
	if err := bad.Validate(); err == nil {
		t.Error("negative activation frame accepted")
	}
	bad = ScenarioMatrix{
		Injectors: []InjectorSource{Registry(fault.NoopName)},
		Densities: []Density{{NPCs: -1}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("negative density accepted")
	}
}

func TestMatrixAndInjectorsExclusive(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Matrix = &ScenarioMatrix{Injectors: []InjectorSource{Registry(fault.NoopName)}}
	if err := cfg.Validate(); err == nil {
		t.Error("Matrix alongside Injectors accepted")
	}
	// Matrix alone validates, including registry resolution of its columns.
	cfg.Injectors = nil
	if err := cfg.Validate(); err != nil {
		t.Errorf("matrix-only config rejected: %v", err)
	}
	cfg.Matrix = &ScenarioMatrix{Injectors: []InjectorSource{Registry("nonsense")}}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown matrix injector accepted")
	}
}

// TestMatrixCampaignDeterministic is the acceptance sweep: 2 weathers x 2
// NPC densities x 2 injectors must reproduce identical EpisodeRecords
// across two runs with the same seed.
func TestMatrixCampaignDeterministic(t *testing.T) {
	run := func() *ResultSet {
		cfg := tinyConfig(t, nil)
		cfg.Matrix = &ScenarioMatrix{
			Weathers:  []world.Weather{world.WeatherClear, world.WeatherRain},
			Densities: []Density{{}, {NPCs: 2, Pedestrians: 1}},
			Injectors: []InjectorSource{Registry(fault.NoopName), Registry("gaussian")},
		}
		cfg.Missions = 1
		cfg.Repetitions = 1
		cfg.Parallelism = 3
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
	a, b := run(), run()
	if len(a.Records) != 8 || len(b.Records) != 8 {
		t.Fatalf("records = %d/%d, want 8 (2 weathers x 2 densities x 2 injectors)", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if !reflect.DeepEqual(a.Records[i], b.Records[i]) {
			t.Fatalf("record %d diverged:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
	// One report per cell, in cell order.
	if len(a.Reports) != 8 {
		t.Fatalf("reports = %d", len(a.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i].Injector != b.Reports[i].Injector {
			t.Errorf("report order diverged: %q vs %q", a.Reports[i].Injector, b.Reports[i].Injector)
		}
	}
	// Cell conditions actually reach the episodes: rain and clear cells of
	// the same injector/density must not be byte-identical drives.
	recFor := func(rs *ResultSet, label string) (rec bool, dist float64) {
		for _, r := range rs.Records {
			if r.Injector == label {
				return true, r.DistanceKM
			}
		}
		return false, 0
	}
	okClear, dClear := recFor(a, "noinject/clear/n0p0/aeb-off")
	okRain, dRain := recFor(a, "noinject/rain/n0p0/aeb-off")
	if !okClear || !okRain {
		t.Fatalf("expected cell labels missing from records: %v", a.Reports)
	}
	if dClear == dRain {
		t.Error("clear and rain cells drove identically; weather not applied per cell")
	}
}

// TestCampaignMultiplexedTCP asserts the engine shape on the TCP path: the
// whole campaign rides one connection to one worker, with episodes
// multiplexed as concurrent sessions.
func TestCampaignMultiplexedTCP(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	})
	addrs, _ := startTestWorkers(t, 1)
	cfg.Pool.Backends = addrs
	cfg.Parallelism = 4
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantEpisodes := 2 * 2 * 2 // injectors x missions x reps
	if len(rs.Records) != wantEpisodes {
		t.Fatalf("records = %d, want %d", len(rs.Records), wantEpisodes)
	}
	if rs.Engine.Transport != "remote" {
		t.Errorf("transport = %q", rs.Engine.Transport)
	}
	if rs.Engine.Episodes != wantEpisodes {
		t.Errorf("engine served %d episodes, want %d", rs.Engine.Episodes, wantEpisodes)
	}
	if rs.Engine.MaxConcurrentSessions < 2 {
		t.Errorf("MaxConcurrentSessions = %d; episodes were not multiplexed", rs.Engine.MaxConcurrentSessions)
	}
}
