// Package hallucinate implements perception hallucinations: phantom
// obstacles injected into the LIDAR scan, after the CARLA fake-points
// technique — spurious returns placed where nothing exists. Where
// sensorfault's LidarGhost scatters uncorrelated short echoes, these
// faults fabricate a *coherent* obstacle (a contiguous cone of beams at a
// consistent distance), which is what defeats plausibility filtering and
// turns a safety monitor against the vehicle: the AEB slams the brakes
// for an object that was never there.
package hallucinate

import (
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	PhantomAheadName   = "phantomahead"
	PhantomFlickerName = "phantomflicker"
)

// paintCone writes a phantom return at dist into the beams within width of
// the forward beam (index 0; the scan wraps). Real returns closer than the
// phantom win, as they would in a point cloud merge.
func paintCone(ranges []float64, width int, dist float64) {
	n := len(ranges)
	if n == 0 {
		return
	}
	for off := -width; off <= width; off++ {
		i := ((off % n) + n) % n
		if ranges[i] > dist {
			ranges[i] = dist
		}
	}
}

// PhantomAhead fabricates a persistent obstacle dead ahead: a cone of
// beams reads a consistent short range for as long as the fault is
// active. The distance is drawn once per episode, so the "object" holds
// still — indistinguishable from a real stalled car to a range-only
// monitor.
type PhantomAhead struct {
	// MinRange, MaxRange bound the once-per-episode distance draw.
	MinRange, MaxRange float64
	// WidthBeams is the phantom's half-width in beams around forward.
	WidthBeams int

	dist    float64
	started bool
}

var (
	_ fault.InputInjector = (*PhantomAhead)(nil)
	_ fault.LidarInjector = (*PhantomAhead)(nil)
)

// NewPhantomAhead returns the default persistent phantom (1.5-2.5 m ahead,
// inside the AEB's minimum trigger distance).
func NewPhantomAhead() *PhantomAhead {
	return &PhantomAhead{MinRange: 1.5, MaxRange: 2.5, WidthBeams: 2}
}

// Name implements fault.InputInjector.
func (p *PhantomAhead) Name() string { return PhantomAheadName }

// InjectImage implements fault.InputInjector (LIDAR-only fault).
func (p *PhantomAhead) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector (LIDAR-only fault).
func (p *PhantomAhead) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// InjectLidar implements fault.LidarInjector.
func (p *PhantomAhead) InjectLidar(ranges []float64, _ int, r *rng.Stream) {
	if !p.started {
		p.dist = r.Range(p.MinRange, p.MaxRange)
		p.started = true
	}
	paintCone(ranges, p.WidthBeams, p.dist)
}

// PhantomFlicker fabricates an intermittent obstacle: on a fraction of
// frames the phantom cone appears at a fresh random distance, then
// vanishes — the flickering false positive that stutter-brakes a vehicle
// and teaches its passengers to distrust the AEB.
type PhantomFlicker struct {
	// Prob is the per-frame probability the phantom appears.
	Prob float64
	// MinRange, MaxRange bound the per-appearance distance draw.
	MinRange, MaxRange float64
	// WidthBeams is the phantom's half-width in beams around forward.
	WidthBeams int
}

var (
	_ fault.InputInjector = (*PhantomFlicker)(nil)
	_ fault.LidarInjector = (*PhantomFlicker)(nil)
)

// NewPhantomFlicker returns the default flickering phantom.
func NewPhantomFlicker() *PhantomFlicker {
	return &PhantomFlicker{Prob: 0.3, MinRange: 1.5, MaxRange: 2.5, WidthBeams: 2}
}

// Name implements fault.InputInjector.
func (p *PhantomFlicker) Name() string { return PhantomFlickerName }

// InjectImage implements fault.InputInjector (LIDAR-only fault).
func (p *PhantomFlicker) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector (LIDAR-only fault).
func (p *PhantomFlicker) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// InjectLidar implements fault.LidarInjector.
func (p *PhantomFlicker) InjectLidar(ranges []float64, _ int, r *rng.Stream) {
	if !r.Bool(p.Prob) {
		return
	}
	paintCone(ranges, p.WidthBeams, r.Range(p.MinRange, p.MaxRange))
}

func init() {
	fault.Register(fault.Spec{
		Name: PhantomAheadName, Class: fault.ClassPerception,
		Description: "persistent phantom obstacle 1.5-2.5 m ahead (5-beam cone)",
		New:         func() interface{} { return NewPhantomAhead() },
	})
	fault.Register(fault.Spec{
		Name: PhantomFlickerName, Class: fault.ClassPerception,
		Description: "flickering phantom obstacle (p=0.3/frame) — stutter braking",
		New:         func() interface{} { return NewPhantomFlicker() },
	})
}
