// Package fault is AVFI's core contribution: the fault localizer and
// injector framework for end-to-end resilience assessment of autonomous
// vehicles (Jha et al., DSN 2018).
//
// AVFI runs fault-injection campaigns in two steps (paper §II): first the
// *localizer* selects where and when faults strike (which sensor, which
// network layer/weight, which message window); then the *injectors* corrupt
// the chosen location using one of four fault classes:
//
//   - Data faults (subpackage imagefault, sensorfault): corrupt sensor
//     measurements — camera noise and occlusions, GPS bias drift,
//     speedometer corruption, and LIDAR dropout and ghost returns.
//   - Hardware faults (subpackage hwfault): single- and multi-bit flips in
//     control commands and camera pixels, and stuck-at control channels.
//   - Timing faults (subpackage timingfault): delay, drop and reordering
//     of the agent's control outputs; a delayed or dropped output leaves
//     the actuator holding its previous command.
//   - Machine-learning faults (subpackage mlfault): noise and bit flips in
//     the driving network's parameters.
//
// Beyond the paper's four classes, the taxonomy has grown the fault
// families its follow-ups (Bayesian FI, DriveFI, resilience assessment)
// and real AV incident reports name:
//
//   - Communication faults (subpackage commfault): jittered latency,
//     bursty loss and bounded reordering on the control link, modelled on
//     the per-frame control stream like the timing faults.
//   - Actuator faults (subpackage actuatorfault): stuck, degraded and
//     biased throttle, brake and steering channels.
//   - Localization faults (subpackage locfault): GPS random-walk drift
//     and Kalman-style fusion divergence.
//   - Perception hallucinations (subpackage hallucinate): phantom
//     obstacles injected into the LIDAR scan — the fault family that
//     turns the AEB safety monitor against the vehicle.
//
// This parent package defines the injector interfaces; Roles, which
// resolves an injector instance into its pipeline roles and gates them
// behind one activation window (the localizer's "when"; the injectors
// themselves only decide "what"); and the registry the campaign runner and
// CLI use to instantiate injectors by name.
package fault

import (
	"fmt"
	"sort"
	"sync"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Window is when a fault is active, in frames since episode start. The
// zero Window means "always active" (whole-episode campaigns, as in the
// paper's Figures 2-4).
type Window struct {
	// StartFrame is the first faulty frame.
	StartFrame int
	// EndFrame is exclusive; 0 means "until episode end".
	EndFrame int
}

// Active reports whether the window covers the frame.
func (w Window) Active(frame int) bool {
	if frame < w.StartFrame {
		return false
	}
	return w.EndFrame == 0 || frame < w.EndFrame
}

// InputInjector corrupts the observation path (data faults and hardware
// faults on sensor payloads): it rewrites the camera image, the speed
// reading and the GPS fix before the agent sees them.
type InputInjector interface {
	// Name identifies the injector in campaign reports (e.g. "gaussian").
	Name() string
	// InjectImage corrupts the camera frame in place. img is the driver's
	// reused frame buffer, overwritten by the next frame: an injector that
	// needs pixels later must copy them, never retain img or img.Pix.
	InjectImage(img *render.Image, frame int, r *rng.Stream)
	// InjectMeasurements corrupts scalar sensor readings, returning the
	// possibly-modified values.
	InjectMeasurements(speed, gpsX, gpsY float64, frame int, r *rng.Stream) (float64, float64, float64)
}

// LidarInjector is an optional extra role for input injectors: corrupting
// the planar LIDAR scan in place. RolesOf finds it on the instance.
type LidarInjector interface {
	// InjectLidar corrupts the scan in place (beam 0 = forward).
	InjectLidar(ranges []float64, frame int, r *rng.Stream)
}

// OutputInjector corrupts the actuation path: the control command after
// the agent computes it and before the world applies it.
type OutputInjector interface {
	Name() string
	// InjectControl corrupts one control command.
	InjectControl(ctl physics.Control, frame int, r *rng.Stream) physics.Control
}

// TimingInjector reshapes the control stream in time: it receives the
// agent's control each frame and returns the control actually delivered to
// actuation (delayed, replayed, or dropped).
type TimingInjector interface {
	Name() string
	// Transform consumes this frame's computed control and returns the
	// delivered one.
	Transform(ctl physics.Control, frame int, r *rng.Stream) physics.Control
	// Reset clears internal queues at episode start.
	Reset()
}

// ModelInjector corrupts the agent's neural networks before or during an
// episode (the paper's ML faults).
type ModelInjector interface {
	Name() string
	// InjectModel corrupts the parameter tensors reachable through visit.
	// It is called once at episode start (runtime-periodic variants wrap
	// their own windows).
	InjectModel(visit func(fn func(component string, layer int, name string, t ParamTensor)), r *rng.Stream)
}

// ParamTensor is the mutable view of one parameter tensor handed to model
// injectors; it matches *tensor.Tensor's relevant surface without binding
// this package to the tensor implementation.
type ParamTensor interface {
	Len() int
	Data() []float64
	Shape() []int
}

// NoopName is the canonical name of the fault-free baseline.
const NoopName = "noinject"

// Noop is the fault-free baseline injector: it implements every injector
// interface and changes nothing. Campaigns use it for the paper's
// "NoInject" reference bars.
type Noop struct{}

var (
	_ InputInjector  = Noop{}
	_ OutputInjector = Noop{}
	_ TimingInjector = Noop{}
	_ ModelInjector  = Noop{}
)

// Name implements all injector interfaces.
func (Noop) Name() string { return NoopName }

// InjectImage implements InputInjector.
func (Noop) InjectImage(*render.Image, int, *rng.Stream) {}

// InjectMeasurements implements InputInjector.
func (Noop) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// InjectControl implements OutputInjector.
func (Noop) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control { return ctl }

// Transform implements TimingInjector.
func (Noop) Transform(ctl physics.Control, _ int, _ *rng.Stream) physics.Control { return ctl }

// Reset implements TimingInjector.
func (Noop) Reset() {}

// InjectModel implements ModelInjector.
func (Noop) InjectModel(func(fn func(string, int, string, ParamTensor)), *rng.Stream) {}

// --- Registry ---

// Spec is a named injector factory with a one-line description, the unit
// the campaign CLI and experiment harness instantiate by name.
type Spec struct {
	Name        string
	Class       Class
	Description string
	// New builds a fresh injector instance (injectors may be stateful).
	New func() interface{}
}

// Class groups injectors by fault family: the paper's four classes (plus
// none), and the families the taxonomy grew afterwards.
type Class int

// Fault classes. Enums start at one; new families append so existing
// numeric values stay stable.
const (
	ClassInvalid Class = iota
	ClassNone
	ClassData
	ClassHardware
	ClassTiming
	ClassML
	ClassComm
	ClassActuator
	ClassLocalization
	ClassPerception
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassData:
		return "data"
	case ClassHardware:
		return "hardware"
	case ClassTiming:
		return "timing"
	case ClassML:
		return "ml"
	case ClassComm:
		return "comm"
	case ClassActuator:
		return "actuator"
	case ClassLocalization:
		return "localization"
	case ClassPerception:
		return "perception"
	default:
		return "invalid"
	}
}

// Classes lists every valid fault class in declaration order.
func Classes() []Class {
	return []Class{
		ClassNone, ClassData, ClassHardware, ClassTiming, ClassML,
		ClassComm, ClassActuator, ClassLocalization, ClassPerception,
	}
}

// ParseClass resolves a class name (as printed by Class.String).
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return ClassInvalid, fmt.Errorf("fault: unknown class %q (have %v)", s, Classes())
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Spec{}
)

// Register adds an injector spec; duplicate names panic (registration is
// package-init time wiring, so a duplicate is a programming error).
func Register(s Spec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if s.Name == "" || s.New == nil {
		panic("fault: registering invalid spec")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("fault: duplicate injector %q", s.Name))
	}
	registry[s.Name] = s
}

// Lookup returns the spec for a name.
func Lookup(name string) (Spec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("fault: unknown injector %q (have %v)", name, registeredNamesLocked())
	}
	return s, nil
}

// Names returns all registered injector names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registeredNamesLocked()
}

// NamesByClass returns the registered injector names of one fault class,
// sorted — the expansion behind the CLI's class:FAMILY injector selector.
func NamesByClass(c Class) []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	var names []string
	for n, s := range registry {
		if s.Class == c {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func registeredNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(Spec{
		Name:        NoopName,
		Class:       ClassNone,
		Description: "fault-free baseline",
		New:         func() interface{} { return Noop{} },
	})
}
