package agent

import (
	"fmt"

	"github.com/avfi/avfi/internal/sim"
)

// PretrainSpec is a recipe for a trained agent: the demonstration
// missions, their collection, the network and its training. TrainNew
// follows it on a world; the same spec on the same world trains the same
// weights bit for bit.
type PretrainSpec struct {
	Missions int
	Collect  CollectConfig
	Train    TrainConfig
	Agent    Config
	// DataSeed drives mission sampling and perturbations.
	DataSeed uint64
}

// DefaultPretrainSpec is the training recipe behind every paper-figure
// experiment in this repository.
func DefaultPretrainSpec() PretrainSpec {
	return PretrainSpec{
		Missions: 10,
		Collect:  DefaultCollectConfig(),
		Train:    DefaultTrainConfig(),
		Agent:    DefaultConfig(),
		DataSeed: 99,
	}
}

// TrainNew collects demonstrations on the world and trains a fresh agent
// sized to the world's camera (the spec's ImageW and ImageH are ignored).
func TrainNew(w *sim.World, spec PretrainSpec) (*Agent, error) {
	cam := w.Renderer().Config()
	spec.Agent.ImageW = cam.Width
	spec.Agent.ImageH = cam.Height

	data, err := CollectDataset(w, spec.Missions, spec.DataSeed, spec.Collect)
	if err != nil {
		return nil, fmt.Errorf("agent: pretrain: %w", err)
	}
	a, err := New(spec.Agent)
	if err != nil {
		return nil, fmt.Errorf("agent: pretrain: %w", err)
	}
	if _, err := a.Train(data, spec.Train); err != nil {
		return nil, fmt.Errorf("agent: pretrain: %w", err)
	}
	return a, nil
}
