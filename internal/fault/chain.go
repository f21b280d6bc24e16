package fault

import (
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Chain composes several input injectors into one: each stage sees the
// previous stage's output, modeling simultaneous faults (e.g. a camera
// occlusion together with LIDAR dropout — the combination that defeats
// both the driving agent and its AEB safety monitor).
type Chain struct {
	ChainName string
	Stages    []InputInjector
}

var (
	_ InputInjector = (*Chain)(nil)
	_ LidarInjector = (*Chain)(nil)
)

// NewChain composes input injectors under a campaign column name.
func NewChain(name string, stages ...InputInjector) *Chain {
	return &Chain{ChainName: name, Stages: stages}
}

// Name implements InputInjector.
func (c *Chain) Name() string { return c.ChainName }

// InjectImage implements InputInjector.
func (c *Chain) InjectImage(img *render.Image, frame int, r *rng.Stream) {
	for _, s := range c.Stages {
		s.InjectImage(img, frame, r)
	}
}

// InjectMeasurements implements InputInjector.
func (c *Chain) InjectMeasurements(speed, gpsX, gpsY float64, frame int, r *rng.Stream) (float64, float64, float64) {
	for _, s := range c.Stages {
		speed, gpsX, gpsY = s.InjectMeasurements(speed, gpsX, gpsY, frame, r)
	}
	return speed, gpsX, gpsY
}

// InjectLidar implements LidarInjector, delegating to stages that corrupt
// LIDAR.
func (c *Chain) InjectLidar(ranges []float64, frame int, r *rng.Stream) {
	for _, s := range c.Stages {
		if li, ok := s.(LidarInjector); ok {
			li.InjectLidar(ranges, frame, r)
		}
	}
}
