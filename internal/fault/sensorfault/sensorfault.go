// Package sensorfault implements AVFI's non-camera data faults: GPS bias
// drift, speedometer corruption (the car-speed half of the paper's "world
// measurements (such as car speed or weather type)" fault surface), and
// LIDAR dropout and ghost returns.
package sensorfault

import (
	"math"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	GPSDriftName     = "gpsdrift"
	SpeedCorruptName = "speedcorrupt"
)

// GPSDrift adds a growing bias to GPS fixes — a satellite-geometry fault
// that worsens the longer it is active.
type GPSDrift struct {
	// RatePerFrame is the bias growth in meters per frame.
	RatePerFrame float64

	dirX, dirY float64
	started    bool
	startFrame int
}

var _ fault.InputInjector = (*GPSDrift)(nil)

// NewGPSDrift returns the default drift fault (~0.8 m/s of drift at 15 FPS).
func NewGPSDrift() *GPSDrift { return &GPSDrift{RatePerFrame: 0.05} }

// Name implements fault.InputInjector.
func (g *GPSDrift) Name() string { return GPSDriftName }

// InjectImage implements fault.InputInjector (measurement-only fault).
func (g *GPSDrift) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector.
func (g *GPSDrift) InjectMeasurements(speed, gpsX, gpsY float64, frame int, r *rng.Stream) (float64, float64, float64) {
	if !g.started {
		angle := r.Range(0, 2*math.Pi)
		g.dirX, g.dirY = math.Cos(angle), math.Sin(angle)
		g.started = true
		g.startFrame = frame
	}
	mag := g.RatePerFrame * float64(frame-g.startFrame+1)
	return speed, gpsX + g.dirX*mag, gpsY + g.dirY*mag
}

// SpeedCorrupt scales and jitters the speedometer reading; an under-reading
// speedometer makes the speed-branch controller drive too fast.
type SpeedCorrupt struct {
	// Scale multiplies the true reading (0.5 = reads half the true speed).
	Scale float64
	// Jitter is additive Gaussian noise stddev, m/s.
	Jitter float64
}

var _ fault.InputInjector = (*SpeedCorrupt)(nil)

// NewSpeedCorrupt returns the default speed-corruption fault.
func NewSpeedCorrupt() *SpeedCorrupt { return &SpeedCorrupt{Scale: 0.5, Jitter: 0.5} }

// Name implements fault.InputInjector.
func (s *SpeedCorrupt) Name() string { return SpeedCorruptName }

// InjectImage implements fault.InputInjector (measurement-only fault).
func (s *SpeedCorrupt) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector.
func (s *SpeedCorrupt) InjectMeasurements(speed, gpsX, gpsY float64, _ int, r *rng.Stream) (float64, float64, float64) {
	v := speed*s.Scale + r.NormScaled(0, s.Jitter)
	if v < 0 {
		v = 0
	}
	return v, gpsX, gpsY
}

func init() {
	fault.Register(fault.Spec{
		Name: GPSDriftName, Class: fault.ClassData,
		Description: "GPS bias drift (0.05 m/frame)",
		New:         func() interface{} { return NewGPSDrift() },
	})
	fault.Register(fault.Spec{
		Name: SpeedCorruptName, Class: fault.ClassData,
		Description: "speedometer under-reads at 50% with jitter",
		New:         func() interface{} { return NewSpeedCorrupt() },
	})
}
