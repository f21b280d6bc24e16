// Declarative campaign specs: the JSON surface of the service's submit
// API and of cmd/avfi's run flags. A CampaignSpec names what to run —
// injectors, grid shape, optional scenario matrix and adaptive allocation
// — and Lower resolves it into a Config; Submit adds the service's shared
// world, agent and fleet. Specs are data, not code: everything a client
// can express here keeps the bit-identity contract (episodes remain a pure
// function of the spec and its seed).
package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/world"
)

// CampaignSpec is one campaign submission (POST /campaigns). The flat
// fields describe the classic injector sweep; Matrix crosses the
// injectors with environmental dimensions instead (the flat weather/
// density/AEB fields are then ignored); Adaptive switches from the
// exhaustive sweep to risk-driven episode allocation.
type CampaignSpec struct {
	// Injectors are the fault columns: registered names (include
	// "noinject" for the baseline bar) or the "all", "taxonomy" and
	// "class:FAMILY" selectors (see Lower).
	Injectors []string `json:"injectors"`
	// Missions and Repetitions shape the episode grid.
	Missions    int `json:"missions"`
	Repetitions int `json:"repetitions"`
	// Seed drives all campaign randomness.
	Seed uint64 `json:"seed"`
	// Weather is "clear" (default), "rain" or "fog".
	Weather string `json:"weather,omitempty"`
	// NPCs and Pedestrians populate each episode.
	NPCs        int `json:"npcs,omitempty"`
	Pedestrians int `json:"pedestrians,omitempty"`
	// AEB installs the independent emergency-braking monitor.
	AEB bool `json:"aeb,omitempty"`
	// Matrix, when set, crosses Injectors with scenario dimensions.
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	// Adaptive, when set, runs risk-driven allocation instead of the
	// exhaustive sweep.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// MaxRetries overrides the service's default per-episode transient
	// retry bound (0 = service default).
	MaxRetries int `json:"max_retries,omitempty"`
}

// MatrixSpec is the JSON form of ScenarioMatrix (injector columns come
// from CampaignSpec.Injectors).
type MatrixSpec struct {
	// Weathers lists conditions to cross ("clear", "rain", "fog").
	Weathers []string `json:"weathers,omitempty"`
	// Densities lists traffic levels as "NxP" (NPCs x pedestrians),
	// e.g. "10x4".
	Densities []string `json:"densities,omitempty"`
	// AEB is "off" (default), "on", or "both" (the ablation pair).
	AEB string `json:"aeb,omitempty"`
	// ActivationFrames lists windowed fault-activation frames to cross.
	ActivationFrames []int `json:"activation_frames,omitempty"`
}

// AdaptiveSpec is the JSON form of AdaptiveConfig.
type AdaptiveSpec struct {
	// Policy is "uniform", "halving" (alias "successive-halving"), or
	// "ucb".
	Policy string `json:"policy"`
	// Budget is the total fresh-episode budget (0 = full grid).
	Budget int `json:"budget,omitempty"`
	// RoundSize is episodes per plan->observe->reallocate round
	// (0 = default sizing).
	RoundSize int `json:"round_size,omitempty"`
}

// parseWeatherName resolves a spec weather label ("" = clear).
func parseWeatherName(name string) (world.Weather, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "clear":
		return world.WeatherClear, nil
	case "rain":
		return world.WeatherRain, nil
	case "fog":
		return world.WeatherFog, nil
	default:
		return 0, fmt.Errorf("campaign: unknown weather %q (want clear, rain or fog)", name)
	}
}

// parseDensitySpec resolves one "NxP" traffic level.
func parseDensitySpec(s string) (Density, error) {
	npcs, peds, ok := strings.Cut(strings.TrimSpace(s), "x")
	if !ok {
		return Density{}, fmt.Errorf("campaign: density %q is not NxP (e.g. 10x4)", s)
	}
	n, err := strconv.Atoi(npcs)
	if err != nil {
		return Density{}, fmt.Errorf("campaign: density %q: bad NPC count: %w", s, err)
	}
	p, err := strconv.Atoi(peds)
	if err != nil {
		return Density{}, fmt.Errorf("campaign: density %q: bad pedestrian count: %w", s, err)
	}
	return Density{NPCs: n, Pedestrians: p}, nil
}

// parseAEBSpec resolves a matrix AEB dimension label.
func parseAEBSpec(s string) ([]bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return nil, nil // neutral level (AEB off)
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	default:
		return nil, fmt.Errorf("campaign: matrix aeb %q (want off, on or both)", s)
	}
}

// matrix lowers the spec onto ScenarioMatrix with the given injector
// columns.
func (m *MatrixSpec) matrix(injectors []InjectorSource) (*ScenarioMatrix, error) {
	out := &ScenarioMatrix{Injectors: injectors, ActivationFrames: m.ActivationFrames}
	for _, name := range m.Weathers {
		w, err := parseWeatherName(name)
		if err != nil {
			return nil, err
		}
		out.Weathers = append(out.Weathers, w)
	}
	for _, d := range m.Densities {
		den, err := parseDensitySpec(d)
		if err != nil {
			return nil, err
		}
		out.Densities = append(out.Densities, den)
	}
	aeb, err := parseAEBSpec(m.AEB)
	if err != nil {
		return nil, err
	}
	out.AEB = aeb
	return out, nil
}

// adaptiveConfig lowers the spec onto AdaptiveConfig.
func (a *AdaptiveSpec) adaptiveConfig() (*AdaptiveConfig, error) {
	pol, err := adaptive.ParsePolicy(a.Policy)
	if err != nil {
		return nil, fmt.Errorf("campaign: adaptive spec: %w", err)
	}
	if a.Budget < 0 || a.RoundSize < 0 {
		return nil, fmt.Errorf("campaign: adaptive spec: budget=%d round_size=%d must be non-negative",
			a.Budget, a.RoundSize)
	}
	return &AdaptiveConfig{Policy: pol, Budget: a.Budget, RoundSize: a.RoundSize}, nil
}

// Lower resolves the spec into the campaign it describes: the injector
// columns, the episode grid, the flat environment or the scenario matrix,
// the per-episode retry bound and, when Adaptive is set, the adaptive
// allocation. An injector entry is a registered name, "all" (every
// registered injector), "taxonomy" (TaxonomySuite) or "class:FAMILY"
// (every registered injector of one fault class). World, agent, pool
// shape and record sinks are the caller's: the service fills them from
// its shared fleet, cmd/avfi from its flags; the rest is validated here.
func (spec CampaignSpec) Lower() (Config, *AdaptiveConfig, error) {
	injectors, err := injectorColumns(spec.Injectors)
	if err != nil {
		return Config{}, nil, err
	}
	cfg := Config{
		Missions:    spec.Missions,
		Repetitions: spec.Repetitions,
		Seed:        spec.Seed,
		Pool:        PoolConfig{MaxRetries: spec.MaxRetries},
	}
	if spec.Matrix != nil {
		if cfg.Matrix, err = spec.Matrix.matrix(injectors); err != nil {
			return Config{}, nil, err
		}
	} else {
		if cfg.Weather, err = parseWeatherName(spec.Weather); err != nil {
			return Config{}, nil, err
		}
		cfg.Injectors = injectors
		cfg.NumNPCs = spec.NPCs
		cfg.NumPedestrians = spec.Pedestrians
		cfg.EnableAEB = spec.AEB
	}
	if err := cfg.validateSpec(); err != nil {
		return Config{}, nil, err
	}
	var acfg *AdaptiveConfig
	if spec.Adaptive != nil {
		if acfg, err = spec.Adaptive.adaptiveConfig(); err != nil {
			return Config{}, nil, err
		}
	}
	return cfg, acfg, nil
}

// injectorColumns expands a spec's injector entries into campaign columns,
// in order.
func injectorColumns(entries []string) ([]InjectorSource, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("campaign: spec has no injectors")
	}
	var out []InjectorSource
	for _, entry := range entries {
		switch {
		case strings.TrimSpace(entry) == "":
			return nil, fmt.Errorf("campaign: spec has an empty injector name")
		case entry == "all":
			for _, name := range fault.Names() {
				out = append(out, Registry(name))
			}
		case entry == "taxonomy":
			out = append(out, TaxonomySuite()...)
		case strings.HasPrefix(entry, "class:"):
			c, err := fault.ParseClass(strings.TrimPrefix(entry, "class:"))
			if err != nil {
				return nil, fmt.Errorf("campaign: injector %q: %w", entry, err)
			}
			names := fault.NamesByClass(c)
			if len(names) == 0 {
				return nil, fmt.Errorf("campaign: injector %q matches no registered injector", entry)
			}
			for _, name := range names {
				out = append(out, Registry(name))
			}
		default:
			out = append(out, Registry(entry))
		}
	}
	return out, nil
}
