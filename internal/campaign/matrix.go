package campaign

import (
	"fmt"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/world"
)

// Density is one traffic-population level of a scenario matrix.
type Density struct {
	// NPCs and Pedestrians populate each episode.
	NPCs        int
	Pedestrians int
}

// ScenarioMatrix spans a combinatorial scenario space: every combination of
// weather, traffic density, AEB setting, fault-activation frame and
// injector becomes one campaign column (crossed, as always, with missions
// and repetitions). This replaces the flat (mission x injector x
// repetition) grid for resilience studies that need coverage over
// environmental conditions, not just fault types — the scale the paper's
// follow-ups (Bayesian FI, DriveFI) sweep.
//
// Empty dimensions default to a single neutral level (clear weather, empty
// roads, AEB off, activation at episode start), so a matrix with only
// Injectors set degenerates to the classic suite.
type ScenarioMatrix struct {
	// Weathers are the ambient conditions to cross.
	Weathers []world.Weather
	// Densities are the traffic-population levels to cross.
	Densities []Density
	// AEB lists the emergency-braking settings to cross (e.g. {false, true}
	// for an ablation).
	AEB []bool
	// ActivationFrames are the windowed fault-activation frames to cross;
	// 0 means the fault is active from episode start.
	ActivationFrames []int
	// Injectors are the fault columns (include fault.NoopName for the
	// baseline).
	Injectors []InjectorSource
}

// ScenarioCell is one fully-resolved point of a scenario matrix.
type ScenarioCell struct {
	// Injector is the cell's fault source, already wrapped for windowed
	// activation when the cell's activation frame is non-zero.
	Injector InjectorSource
	// Weather, Density and AEB configure the cell's episodes.
	Weather world.Weather
	Density Density
	AEB     bool
}

// Label is the cell's unique, deterministic column name; it keys the cell's
// episode records, reports and seed derivation.
func (c ScenarioCell) Label() string {
	aeb := "aeb-off"
	if c.AEB {
		aeb = "aeb-on"
	}
	return fmt.Sprintf("%s/%s/n%dp%d/%s",
		c.Injector.Name, c.Weather, c.Density.NPCs, c.Density.Pedestrians, aeb)
}

// Validate checks the matrix definition.
func (m ScenarioMatrix) Validate() error {
	if len(m.Injectors) == 0 {
		return fmt.Errorf("campaign: matrix has no injectors")
	}
	for i, src := range m.Injectors {
		if src.Name == "" {
			return fmt.Errorf("campaign: matrix injector %d has no name", i)
		}
	}
	for _, f := range m.ActivationFrames {
		if f < 0 {
			return fmt.Errorf("campaign: negative activation frame %d", f)
		}
	}
	for _, w := range m.Weathers {
		if err := checkEnvironment(w, Density{}); err != nil {
			return err
		}
	}
	for _, d := range m.Densities {
		if err := checkEnvironment(world.WeatherClear, d); err != nil {
			return err
		}
	}
	return nil
}

// checkEnvironment fails a campaign up front on a weather or actor count
// that every one of its episodes would be refused: by Client.RunEpisode
// for the wire's widths, or by the worker's sim.EpisodeConfig.Validate.
// The mission is a placeholder — missions are sampled later, and checked
// per episode.
func checkEnvironment(w world.Weather, d Density) error {
	cfg := sim.EpisodeConfig{From: 0, To: 1, Weather: w, NumNPCs: d.NPCs, NumPedestrians: d.Pedestrians}
	err := proto.CheckEpisodeConfig(cfg)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// Size returns the number of cells the matrix expands to.
func (m ScenarioMatrix) Size() int {
	d := m.withDefaults()
	return len(d.Injectors) * len(d.Weathers) * len(d.Densities) * len(d.AEB) * len(d.ActivationFrames)
}

// withDefaults fills empty dimensions with their single neutral level.
func (m ScenarioMatrix) withDefaults() ScenarioMatrix {
	if len(m.Weathers) == 0 {
		m.Weathers = []world.Weather{world.WeatherClear}
	}
	if len(m.Densities) == 0 {
		m.Densities = []Density{{}}
	}
	if len(m.AEB) == 0 {
		m.AEB = []bool{false}
	}
	if len(m.ActivationFrames) == 0 {
		m.ActivationFrames = []int{0}
	}
	return m
}

// Cells expands the matrix into its cells in deterministic order
// (injector-major, then activation frame, weather, density, AEB), applying
// Windowed wrapping for non-zero activation frames.
func (m ScenarioMatrix) Cells() []ScenarioCell {
	m = m.withDefaults()
	cells := make([]ScenarioCell, 0, m.Size())
	for _, src := range m.Injectors {
		for _, frame := range m.ActivationFrames {
			resolved := src
			if frame > 0 {
				resolved = Windowed(src, frame)
			}
			for _, w := range m.Weathers {
				for _, d := range m.Densities {
					for _, aeb := range m.AEB {
						cells = append(cells, ScenarioCell{
							Injector: resolved,
							Weather:  w,
							Density:  d,
							AEB:      aeb,
						})
					}
				}
			}
		}
	}
	return cells
}
