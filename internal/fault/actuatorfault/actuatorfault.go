// Package actuatorfault implements faults in the actuation hardware
// itself: a throttle stuck open, brake pads faded to a fraction of their
// commanded force, and a steering channel with a standing bias. Where the
// paper's output faults corrupt the command *bytes* (hwfault) or their
// *timing* (timingfault), these corrupt the mechanical response — the
// command arrives intact and the actuator does something else.
package actuatorfault

import (
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	StuckThrottleName = "stuckthrottle"
	BrakeFadeName     = "brakefade"
	SteerBiasName     = "steerbias"
)

// StuckThrottle pins the throttle open at a fixed position regardless of
// the commanded value — the classic unintended-acceleration fault. The
// brake channel is mechanically independent and keeps working, so the AEB
// can still fight the runaway.
type StuckThrottle struct {
	// Value is the stuck pedal position in [0, 1].
	Value float64
}

var _ fault.OutputInjector = (*StuckThrottle)(nil)

// NewStuckThrottle returns the default stuck-open throttle.
func NewStuckThrottle() *StuckThrottle { return &StuckThrottle{Value: 0.7} }

// Name implements fault.OutputInjector.
func (s *StuckThrottle) Name() string { return StuckThrottleName }

// InjectControl implements fault.OutputInjector.
func (s *StuckThrottle) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	ctl.Throttle = s.Value
	return ctl
}

// BrakeFade degrades braking force to a fraction of the commanded value —
// overheated pads or a failing booster. Commands pass through otherwise
// intact, so the fault only shows when the vehicle needs to stop.
type BrakeFade struct {
	// Gain scales the commanded brake (0.3 = 30% of commanded force).
	Gain float64
}

var _ fault.OutputInjector = (*BrakeFade)(nil)

// NewBrakeFade returns the default faded brake.
func NewBrakeFade() *BrakeFade { return &BrakeFade{Gain: 0.3} }

// Name implements fault.OutputInjector.
func (b *BrakeFade) Name() string { return BrakeFadeName }

// InjectControl implements fault.OutputInjector.
func (b *BrakeFade) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	ctl.Brake *= b.Gain
	return ctl
}

// SteerBias adds a standing offset plus mechanical jitter to the steering
// command — a misaligned rack or a degraded servo. The agent's lane
// correction continually fights the bias, which is precisely what makes
// the fault slow-burning rather than instantly fatal.
type SteerBias struct {
	// Bias is the standing offset added to every steering command.
	Bias float64
	// Jitter is additive Gaussian noise stddev on the steering channel.
	Jitter float64
}

var _ fault.OutputInjector = (*SteerBias)(nil)

// NewSteerBias returns the default biased steering channel.
func NewSteerBias() *SteerBias { return &SteerBias{Bias: 0.15, Jitter: 0.02} }

// Name implements fault.OutputInjector.
func (s *SteerBias) Name() string { return SteerBiasName }

// InjectControl implements fault.OutputInjector.
func (s *SteerBias) InjectControl(ctl physics.Control, _ int, r *rng.Stream) physics.Control {
	v := ctl.Steer + s.Bias
	if s.Jitter > 0 {
		v += r.NormScaled(0, s.Jitter)
	}
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	ctl.Steer = v
	return ctl
}

func init() {
	fault.Register(fault.Spec{
		Name: StuckThrottleName, Class: fault.ClassActuator,
		Description: "throttle stuck open at 0.7 (unintended acceleration)",
		New:         func() interface{} { return NewStuckThrottle() },
	})
	fault.Register(fault.Spec{
		Name: BrakeFadeName, Class: fault.ClassActuator,
		Description: "brake force faded to 30% of commanded",
		New:         func() interface{} { return NewBrakeFade() },
	})
	fault.Register(fault.Spec{
		Name: SteerBiasName, Class: fault.ClassActuator,
		Description: "standing steering bias +0.15 with servo jitter",
		New:         func() interface{} { return NewSteerBias() },
	})
}
