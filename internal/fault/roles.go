package fault

import (
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Roles is one injector instance resolved into its pipeline roles, plus
// the activation window the fault localizer chose for it. Nil roles are
// skipped. *Roles implements every role interface itself, gating each call
// behind Window, so a bundle can stand in wherever an injector is expected:
//
//   - input, lidar and output roles are called only inside the window;
//   - the timing role is called on every frame, so its queues stay causally
//     consistent when the window opens, but its output is used only inside
//     the window;
//   - the model role is applied once, at episode start, and is never
//     windowed.
type Roles struct {
	// InjectorName is what Name reports.
	InjectorName string
	// Window is when the per-frame roles are active; the zero Window is
	// the whole episode.
	Window Window

	Input  InputInjector
	Lidar  LidarInjector
	Output OutputInjector
	Timing TimingInjector
	Model  ModelInjector
}

var (
	_ InputInjector  = (*Roles)(nil)
	_ LidarInjector  = (*Roles)(nil)
	_ OutputInjector = (*Roles)(nil)
	_ TimingInjector = (*Roles)(nil)
	_ ModelInjector  = (*Roles)(nil)
)

// RolesOf resolves an injector instance into its roles. It is the one place
// that discovers roles by type assertion. A *Roles is returned as it is.
func RolesOf(inst interface{}) *Roles {
	if r, ok := inst.(*Roles); ok {
		return r
	}
	r := &Roles{}
	if n, ok := inst.(interface{ Name() string }); ok {
		r.InjectorName = n.Name()
	}
	r.Input, _ = inst.(InputInjector)
	r.Lidar, _ = inst.(LidarInjector)
	r.Output, _ = inst.(OutputInjector)
	r.Timing, _ = inst.(TimingInjector)
	r.Model, _ = inst.(ModelInjector)
	return r
}

// Name implements the injector interfaces.
func (r *Roles) Name() string { return r.InjectorName }

// InjectImage implements InputInjector.
func (r *Roles) InjectImage(img *render.Image, frame int, s *rng.Stream) {
	if r.Input != nil && r.Window.Active(frame) {
		r.Input.InjectImage(img, frame, s)
	}
}

// InjectMeasurements implements InputInjector.
func (r *Roles) InjectMeasurements(speed, gpsX, gpsY float64, frame int, s *rng.Stream) (float64, float64, float64) {
	if r.Input != nil && r.Window.Active(frame) {
		return r.Input.InjectMeasurements(speed, gpsX, gpsY, frame, s)
	}
	return speed, gpsX, gpsY
}

// InjectLidar implements LidarInjector.
func (r *Roles) InjectLidar(ranges []float64, frame int, s *rng.Stream) {
	if r.Lidar != nil && r.Window.Active(frame) {
		r.Lidar.InjectLidar(ranges, frame, s)
	}
}

// InjectControl implements OutputInjector.
func (r *Roles) InjectControl(ctl physics.Control, frame int, s *rng.Stream) physics.Control {
	if r.Output != nil && r.Window.Active(frame) {
		return r.Output.InjectControl(ctl, frame, s)
	}
	return ctl
}

// Transform implements TimingInjector.
func (r *Roles) Transform(ctl physics.Control, frame int, s *rng.Stream) physics.Control {
	if r.Timing == nil {
		return ctl
	}
	out := r.Timing.Transform(ctl, frame, s)
	if !r.Window.Active(frame) {
		return ctl
	}
	return out
}

// Reset implements TimingInjector.
func (r *Roles) Reset() {
	if r.Timing != nil {
		r.Timing.Reset()
	}
}

// InjectModel implements ModelInjector.
func (r *Roles) InjectModel(visit func(fn func(component string, layer int, name string, t ParamTensor)), s *rng.Stream) {
	if r.Model != nil {
		r.Model.InjectModel(visit, s)
	}
}
