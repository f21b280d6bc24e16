package fault

import (
	"testing"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// blackout is a test InputInjector that zeroes the image and measurements.
type blackout struct{}

func (blackout) Name() string { return "blackout" }
func (blackout) InjectImage(img *render.Image, _ int, _ *rng.Stream) {
	for i := range img.Pix {
		img.Pix[i] = 0
	}
}
func (blackout) InjectMeasurements(_, _, _ float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return 0, 0, 0
}

// slam is a test OutputInjector forcing full brake.
type slam struct{}

func (slam) Name() string { return "slam" }
func (slam) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	ctl.Brake = 1
	return ctl
}

// hold is a test TimingInjector that always replays the first control.
type hold struct {
	first    physics.Control
	hasFirst bool
}

func (h *hold) Name() string { return "hold" }
func (h *hold) Reset()       { h.hasFirst = false }
func (h *hold) Transform(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	if !h.hasFirst {
		h.first = ctl
		h.hasFirst = true
	}
	return h.first
}

func TestWindowedInputGates(t *testing.T) {
	w := &Roles{InjectorName: "blackout", Input: blackout{}, Window: Window{StartFrame: 10, EndFrame: 20}}
	r := rng.New(1)

	img := render.NewImage(2, 2)
	img.Pix[0] = 0.7
	w.InjectImage(img, 5, r)
	if img.Pix[0] != 0.7 {
		t.Error("input fault fired before window")
	}
	w.InjectImage(img, 15, r)
	if img.Pix[0] != 0 {
		t.Error("input fault inactive inside window")
	}

	s, x, y := w.InjectMeasurements(5, 1, 2, 25, r)
	if s != 5 || x != 1 || y != 2 {
		t.Error("measurement fault fired after window")
	}
	s, _, _ = w.InjectMeasurements(5, 1, 2, 15, r)
	if s != 0 {
		t.Error("measurement fault inactive inside window")
	}
	if w.Name() != "blackout" {
		t.Error("bundle hides the injector's name")
	}
}

func TestWindowedOutputGates(t *testing.T) {
	w := &Roles{Output: slam{}, Window: Window{StartFrame: 100}}
	r := rng.New(2)
	ctl := physics.Control{Throttle: 1}
	if got := w.InjectControl(ctl, 50, r); got.Brake != 0 {
		t.Error("output fault fired before window")
	}
	if got := w.InjectControl(ctl, 150, r); got.Brake != 1 {
		t.Error("output fault inactive inside window")
	}
}

func TestWindowedTimingGates(t *testing.T) {
	inner := &hold{}
	w := &Roles{Timing: inner, Window: Window{StartFrame: 2}}
	r := rng.New(3)
	w.Reset()

	c0 := physics.Control{Steer: 0.1}
	c1 := physics.Control{Steer: 0.2}
	c2 := physics.Control{Steer: 0.3}

	// Before the window: passthrough (inner still sees frames).
	if got := w.Transform(c0, 0, r); got != c0 {
		t.Error("timing fault altered stream before window")
	}
	if got := w.Transform(c1, 1, r); got != c1 {
		t.Error("timing fault altered stream before window")
	}
	// Inside: inner's behaviour (replay of its first-seen control).
	if got := w.Transform(c2, 2, r); got != c0 {
		t.Errorf("timing fault inside window returned %+v, want inner's replay %+v", got, c0)
	}
	// Reset propagates.
	w.Reset()
	if inner.hasFirst {
		t.Error("Reset did not reach the inner injector")
	}
}

func TestWindowedImplementInterfaces(t *testing.T) {
	var _ InputInjector = &Roles{Input: Noop{}}
	var _ LidarInjector = &Roles{}
	var _ OutputInjector = &Roles{Output: Noop{}}
	var _ TimingInjector = &Roles{Timing: Noop{}}
	var _ ModelInjector = &Roles{Model: Noop{}}
}

func TestRolesOfResolvesEveryRole(t *testing.T) {
	r := RolesOf(Noop{})
	if r.Input == nil || r.Output == nil || r.Timing == nil || r.Model == nil {
		t.Errorf("RolesOf(Noop{}) = %+v, want input, output, timing and model roles", r)
	}
	if r.Lidar != nil {
		t.Error("Noop has no LIDAR role")
	}
	if r.Name() != NoopName || r.Window != (Window{}) {
		t.Errorf("RolesOf(Noop{}) named %q with window %+v", r.Name(), r.Window)
	}
	z := RolesOf(zapLidar{})
	if z.Input == nil || z.Lidar == nil || z.Output != nil || z.Timing != nil || z.Model != nil {
		t.Errorf("RolesOf(zapLidar{}) = %+v, want input and lidar roles only", z)
	}
	// A bundle is its own roles: no new bundle wrapping the old one.
	if RolesOf(z) != z {
		t.Error("RolesOf(*Roles) built a new bundle")
	}
	if e := RolesOf(nil); e.Input != nil || e.Lidar != nil || e.Output != nil || e.Timing != nil || e.Model != nil {
		t.Errorf("RolesOf(nil) = %+v", e)
	}
}

// zapLidar is a test injector carrying the LIDAR role: it slams every beam
// to zero (point-blank returns in all directions).
type zapLidar struct{ blackout }

func (zapLidar) Name() string { return "zaplidar" }
func (zapLidar) InjectLidar(ranges []float64, _ int, _ *rng.Stream) {
	for i := range ranges {
		ranges[i] = 0
	}
}

func cleanScan(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 60
	}
	return s
}

func TestWindowedInputForwardsLidarRole(t *testing.T) {
	// Regression: the input-role window wrapper used to drop the optional
	// LidarInjector role, so windowed lidar faults never reached the scan.
	w := RolesOf(zapLidar{})
	w.Window = Window{StartFrame: 10, EndFrame: 20}
	r := rng.New(7)

	scan := cleanScan(4)
	w.InjectLidar(scan, 5, r)
	if scan[0] != 60 {
		t.Error("lidar fault fired before window")
	}
	w.InjectLidar(scan, 15, r)
	if scan[0] != 0 {
		t.Error("lidar fault inactive inside window")
	}
	scan = cleanScan(4)
	w.InjectLidar(scan, 25, r)
	if scan[0] != 60 {
		t.Error("lidar fault fired after window")
	}

	// An inner injector without the role stays a safe no-op.
	wn := RolesOf(blackout{})
	scan = cleanScan(4)
	wn.InjectLidar(scan, 15, r)
	if scan[0] != 60 {
		t.Error("lidar-less inner mutated the scan")
	}
}

func TestMultiForwardsLidarRole(t *testing.T) {
	// Regression: the campaign layer's windowed bundle used to hide the
	// input slot's LidarInjector role from the client's type assertion.
	m := &Roles{
		InjectorName: "zaplidar@10",
		Input:        zapLidar{},
		Lidar:        zapLidar{},
		Window:       Window{StartFrame: 10},
	}
	var li LidarInjector = m
	r := rng.New(8)

	scan := cleanScan(4)
	li.InjectLidar(scan, 5, r)
	if scan[0] != 60 {
		t.Error("bundled lidar fault fired before window")
	}
	li.InjectLidar(scan, 10, r)
	if scan[0] != 0 {
		t.Error("bundled lidar fault inactive inside window")
	}

	// Empty and lidar-less bundles are safe no-ops.
	scan = cleanScan(4)
	(&Roles{InjectorName: "empty"}).InjectLidar(scan, 10, r)
	(&Roles{InjectorName: "img", Input: blackout{}}).InjectLidar(scan, 10, r)
	if scan[0] != 60 {
		t.Error("lidar-less bundle mutated the scan")
	}
}
