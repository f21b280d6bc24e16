package sensorfault

import (
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical LIDAR injector names.
const (
	LidarDropoutName = "lidardropout"
	LidarGhostName   = "lidarghost"
)

// LidarInjector is the optional injector role for corrupting LIDAR scans;
// the client driver applies it when an input injector also implements it.
// (Defined here rather than in package fault because LIDAR faults arrived
// with the AEB extension; the alias below re-exports it for symmetry.)
type LidarInjector = fault.LidarInjector

// LidarDropout silences beams: dropped beams read maximum range, as a
// receiver losing returns would. A blind AEB never triggers.
type LidarDropout struct {
	// Prob is the per-beam dropout probability per frame.
	Prob float64
	// MaxRange is the sensor's configured maximum (reported for lost beams).
	MaxRange float64
}

var (
	_ fault.InputInjector = (*LidarDropout)(nil)
	_ fault.LidarInjector = (*LidarDropout)(nil)
)

// NewLidarDropout returns the default dropout fault.
func NewLidarDropout() *LidarDropout { return &LidarDropout{Prob: 0.9, MaxRange: 60} }

// Name implements fault.InputInjector.
func (l *LidarDropout) Name() string { return LidarDropoutName }

// InjectImage implements fault.InputInjector (LIDAR-only fault).
func (l *LidarDropout) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector (LIDAR-only fault).
func (l *LidarDropout) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// InjectLidar implements fault.LidarInjector.
func (l *LidarDropout) InjectLidar(ranges []float64, _ int, r *rng.Stream) {
	for i := range ranges {
		if r.Bool(l.Prob) {
			ranges[i] = l.MaxRange
		}
	}
}

// LidarGhost injects spurious short echoes — interference or retro-
// reflector artifacts that make the AEB see phantom obstacles and brake
// for nothing.
type LidarGhost struct {
	// Prob is the per-beam ghost probability per frame.
	Prob float64
	// MinRange, MaxRange bound the phantom return distance.
	MinRange, MaxRange float64
}

var (
	_ fault.InputInjector = (*LidarGhost)(nil)
	_ fault.LidarInjector = (*LidarGhost)(nil)
)

// NewLidarGhost returns the default ghost-echo fault.
func NewLidarGhost() *LidarGhost { return &LidarGhost{Prob: 0.08, MinRange: 2, MaxRange: 10} }

// Name implements fault.InputInjector.
func (l *LidarGhost) Name() string { return LidarGhostName }

// InjectImage implements fault.InputInjector (LIDAR-only fault).
func (l *LidarGhost) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements fault.InputInjector (LIDAR-only fault).
func (l *LidarGhost) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// InjectLidar implements fault.LidarInjector.
func (l *LidarGhost) InjectLidar(ranges []float64, _ int, r *rng.Stream) {
	for i := range ranges {
		if r.Bool(l.Prob) {
			ranges[i] = r.Range(l.MinRange, l.MaxRange)
		}
	}
}

func init() {
	fault.Register(fault.Spec{
		Name: LidarDropoutName, Class: fault.ClassData,
		Description: "LIDAR beams drop to max range (p=0.9/beam) — blinds AEB",
		New:         func() interface{} { return NewLidarDropout() },
	})
	fault.Register(fault.Spec{
		Name: LidarGhostName, Class: fault.ClassData,
		Description: "spurious short LIDAR echoes (p=0.08/beam) — phantom braking",
		New:         func() interface{} { return NewLidarGhost() },
	})
}
