// Package locfault implements localization faults: errors in the
// vehicle's estimate of where it is and how fast it moves. GPSWalk models
// a receiver random-walking away from truth (multipath, ionospheric
// error); FusionDiverge models a state-estimation filter whose error
// feeds back on itself and grows without bound — the silent failure mode
// of an unmonitored Kalman-style fusion stack. Both corrupt the measured
// pose handed to the agent, complementing sensorfault's fixed-direction
// GPS bias drift.
package locfault

import (
	"math"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	GPSWalkName       = "gpswalk"
	FusionDivergeName = "fusiondiverge"
)

// GPSWalk perturbs the GPS fix with an unbiased random walk: each active
// frame the reported position steps by Gaussian noise that accumulates,
// so the error wanders rather than growing in a straight line.
type GPSWalk struct {
	// StepSigma is the per-frame step stddev in meters (per axis).
	StepSigma float64

	offX, offY float64
}

var (
	_ fault.InputInjector = (*GPSWalk)(nil)
)

// NewGPSWalk returns the default random-walk fault (~1 m RMS after 4 s at
// 15 FPS).
func NewGPSWalk() *GPSWalk { return &GPSWalk{StepSigma: 0.15} }

// Name implements fault.InputInjector.
func (g *GPSWalk) Name() string { return GPSWalkName }

// InjectImage implements fault.InputInjector (measurement-only fault).
func (g *GPSWalk) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector.
func (g *GPSWalk) InjectMeasurements(speed, gpsX, gpsY float64, _ int, r *rng.Stream) (float64, float64, float64) {
	g.offX += r.NormScaled(0, g.StepSigma)
	g.offY += r.NormScaled(0, g.StepSigma)
	return speed, gpsX + g.offX, gpsY + g.offY
}

// FusionDiverge models sensor-fusion divergence: once triggered, the pose
// estimate drifts in a random direction with exponentially growing
// magnitude, and the fused speed estimate inflates with it — the
// characteristic signature of a filter whose innovation gate has failed
// open.
type FusionDiverge struct {
	// InitialMeters is the error magnitude on the first faulty frame.
	InitialMeters float64
	// GrowthPerFrame is the exponential growth rate (0.08 doubles the
	// error roughly every 9 frames).
	GrowthPerFrame float64
	// SpeedDriftPerFrame linearly inflates the fused speed estimate.
	SpeedDriftPerFrame float64

	dirX, dirY float64
	started    bool
	startFrame int
}

var (
	_ fault.InputInjector = (*FusionDiverge)(nil)
)

// NewFusionDiverge returns the default divergence fault.
func NewFusionDiverge() *FusionDiverge {
	return &FusionDiverge{InitialMeters: 0.5, GrowthPerFrame: 0.08, SpeedDriftPerFrame: 0.01}
}

// Name implements fault.InputInjector.
func (f *FusionDiverge) Name() string { return FusionDivergeName }

// InjectImage implements fault.InputInjector (measurement-only fault).
func (f *FusionDiverge) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector.
func (f *FusionDiverge) InjectMeasurements(speed, gpsX, gpsY float64, frame int, r *rng.Stream) (float64, float64, float64) {
	if !f.started {
		angle := r.Range(0, 2*math.Pi)
		f.dirX, f.dirY = math.Cos(angle), math.Sin(angle)
		f.started = true
		f.startFrame = frame
	}
	k := float64(frame - f.startFrame)
	mag := f.InitialMeters * math.Pow(1+f.GrowthPerFrame, k)
	speed *= 1 + f.SpeedDriftPerFrame*k
	return speed, gpsX + f.dirX*mag, gpsY + f.dirY*mag
}

func init() {
	fault.Register(fault.Spec{
		Name: GPSWalkName, Class: fault.ClassLocalization,
		Description: "GPS random walk (0.15 m/frame step stddev)",
		New:         func() interface{} { return NewGPSWalk() },
	})
	fault.Register(fault.Spec{
		Name: FusionDivergeName, Class: fault.ClassLocalization,
		Description: "fusion divergence: pose error grows 8%/frame, speed inflates",
		New:         func() interface{} { return NewFusionDiverge() },
	})
}
