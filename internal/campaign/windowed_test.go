package campaign

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/tensor"
)

// probeInput records the frames it is invoked on.
type probeInput struct {
	minFrame *int64 // atomic; smallest frame seen
	calls    *int64
}

func (probeInput) Name() string { return "probe" }

func (p probeInput) InjectImage(_ *render.Image, frame int, _ *rng.Stream) {
	atomic.AddInt64(p.calls, 1)
	for {
		cur := atomic.LoadInt64(p.minFrame)
		if int64(frame) >= cur {
			return
		}
		if atomic.CompareAndSwapInt64(p.minFrame, cur, int64(frame)) {
			return
		}
	}
}

func (p probeInput) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

func TestWindowedInjectorActivatesAtFrame(t *testing.T) {
	minFrame := int64(1 << 40)
	calls := int64(0)
	const start = 30

	src := Windowed(InjectorSource{
		Name: "probe",
		New: func() interface{} {
			return probeInput{minFrame: &minFrame, calls: &calls}
		},
	}, start)

	if src.Name != "probe@30" {
		t.Errorf("windowed name = %q", src.Name)
	}
	if src.InjectionFrame != start {
		t.Errorf("InjectionFrame = %d", src.InjectionFrame)
	}

	cfg := tinyConfig(t, []InjectorSource{src})
	cfg.Missions = 1
	cfg.Repetitions = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	if atomic.LoadInt64(&calls) == 0 {
		t.Fatal("windowed injector never fired")
	}
	if got := atomic.LoadInt64(&minFrame); got < start {
		t.Errorf("injector fired at frame %d, window starts at %d", got, start)
	}
	// The record carries the injection time for TTV accounting.
	wantTime := float64(start) * sim.Dt
	if rs.Records[0].InjectionTimeSec != wantTime {
		t.Errorf("InjectionTimeSec = %v, want %v", rs.Records[0].InjectionTimeSec, wantTime)
	}
}

func TestWindowedRegistryInjector(t *testing.T) {
	// Wrapping a registry-resolved injector must also work.
	src := Windowed(Registry("gaussian"), 10)
	inst := src.New()
	if _, ok := inst.(fault.InputInjector); !ok {
		t.Fatal("wrapped registry injector lost its InputInjector role")
	}
	cfg := tinyConfig(t, []InjectorSource{src})
	cfg.Missions = 1
	cfg.Repetitions = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedLidarInjectorKeepsRole(t *testing.T) {
	// Regression: the bundle built by Windowed used to drop the
	// LidarInjector role, so name@frame lidar faults were silent no-ops —
	// the client's type assertion failed and the AEB saw clean scans during
	// the activation window.
	src := Windowed(Registry("lidardropout"), 30)
	li := fault.RolesOf(src.New())
	if li.Lidar == nil {
		t.Fatal("windowed lidar injector lost its LidarInjector role")
	}

	r := rng.New(9)
	scan := make([]float64, 36) // all-zero; dropout pushes beams to max range
	li.InjectLidar(scan, 10, r)
	for i, v := range scan {
		if v != 0 {
			t.Fatalf("lidar fault fired before window: beam %d = %v", i, v)
		}
	}
	li.InjectLidar(scan, 40, r)
	changed := 0
	for _, v := range scan {
		if v != 0 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("windowed lidar fault never corrupted the scan inside the window")
	}
}

func TestWindowedTimingInjector(t *testing.T) {
	// Timing injectors keep working when windowed.
	src := Windowed(Registry("outputdelay"), 5)
	inst := src.New()
	if _, ok := inst.(fault.TimingInjector); !ok {
		t.Fatal("wrapped timing injector lost its TimingInjector role")
	}
}

// roleSet names the non-nil roles of a bundle.
func roleSet(r *fault.Roles) [5]bool {
	return [5]bool{r.Input != nil, r.Lidar != nil, r.Output != nil, r.Timing != nil, r.Model != nil}
}

// paramsOf copies every parameter of an agent.
func paramsOf(a *agent.Agent) []float64 {
	var out []float64
	a.VisitParams(func(_ string, _ int, _ string, v *tensor.Tensor) {
		out = append(out, v.Data()...)
	})
	return out
}

// applyModel runs a model role over a fresh clone of base.
func applyModel(base *agent.Agent, m fault.ModelInjector, seed uint64) []float64 {
	a := base.Clone()
	m.InjectModel(func(fn func(string, int, string, fault.ParamTensor)) {
		a.VisitParams(func(component string, layer int, name string, v *tensor.Tensor) {
			fn(component, layer, name, v)
		})
	}, rng.New(seed))
	return paramsOf(a)
}

// TestWindowedGatesEveryRegisteredInjector is the windowing contract over
// the whole registry: Windowed keeps every role of the bare instance; before
// the window no per-frame role changes its payload, and the input, lidar
// and output roles draw nothing from the fault stream; the timing role runs
// on every frame; the model role is applied at episode start regardless of
// the window (ROADMAP finding 6).
func TestWindowedGatesEveryRegisteredInjector(t *testing.T) {
	const start = 7
	base := tinyAgent(t)
	for _, name := range fault.Names() {
		t.Run(name, func(t *testing.T) {
			bare, err := Instantiate(Registry(name))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Instantiate(Windowed(Registry(name), start))
			if err != nil {
				t.Fatal(err)
			}
			_, in := bare.(fault.InputInjector)
			_, li := bare.(fault.LidarInjector)
			_, out := bare.(fault.OutputInjector)
			_, tm := bare.(fault.TimingInjector)
			_, ml := bare.(fault.ModelInjector)
			want := [5]bool{in, li, out, tm, ml}
			rb, rw := fault.RolesOf(bare), fault.RolesOf(inst)
			if roleSet(rb) != want || roleSet(rw) != want {
				t.Fatalf("roles (input, lidar, output, timing, model): instance %v, bare bundle %v, windowed %v",
					want, roleSet(rb), roleSet(rw))
			}

			img := render.NewImage(16, 12)
			for i := range img.Pix {
				img.Pix[i] = float64(i%7) / 7
			}
			orig := img.Clone()
			scan := make([]float64, 36)
			for i := range scan {
				scan[i] = 20
			}
			stream := rng.New(1)
			for frame := 0; frame < start; frame++ {
				rw.InjectImage(img, frame, stream)
				for i, v := range orig.Pix {
					if img.Pix[i] != v {
						t.Fatalf("frame %d: image pixel %d changed before the window", frame, i)
					}
				}
				if s, x, y := rw.InjectMeasurements(8, 1, 2, frame, stream); s != 8 || x != 1 || y != 2 {
					t.Fatalf("frame %d: measurements (8, 1, 2) became (%v, %v, %v) before the window", frame, s, x, y)
				}
				rw.InjectLidar(scan, frame, stream)
				for i, v := range scan {
					if v != 20 {
						t.Fatalf("frame %d: beam %d = %v before the window", frame, i, v)
					}
				}
				ctl := physics.Control{Steer: 0.1 * float64(frame%3), Throttle: 0.5, Brake: 0.25}
				if got := rw.InjectControl(ctl, frame, stream); got != ctl {
					t.Fatalf("frame %d: control %+v became %+v before the window", frame, ctl, got)
				}
			}
			if got, want := stream.Uint64(), rng.New(1).Uint64(); got != want {
				t.Error("input, lidar or output roles drew from the fault stream before the window")
			}

			// The timing role sees every frame: before the window the
			// control passes through, inside it the windowed role
			// delivers exactly what the bare one does.
			rb.Reset()
			rw.Reset()
			sb, sw := rng.New(2), rng.New(2)
			for frame := 0; frame < start+10; frame++ {
				ctl := physics.Control{Steer: 0.1 * float64(frame%3), Throttle: 0.05 * float64(frame), Brake: 0.25}
				got, bareGot := rw.Transform(ctl, frame, sw), rb.Transform(ctl, frame, sb)
				if frame < start && got != ctl {
					t.Fatalf("frame %d: delivered %+v instead of %+v before the window", frame, got, ctl)
				}
				if frame >= start && got != bareGot {
					t.Fatalf("frame %d: windowed timing role delivered %+v, bare %+v", frame, got, bareGot)
				}
			}

			if rb.Model != nil {
				if got, want := applyModel(base, rw, 3), applyModel(base, rb.Model, 3); !equalFloats(got, want) {
					t.Error("windowed model role differs from the bare one: it must apply at episode start")
				}
			}
		})
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// firstInput is a probe with input and timing roles: it records the first
// frame its input role runs on, and its timing role always brakes.
type firstInput struct{ frame int }

func (*firstInput) Name() string { return "first" }
func (p *firstInput) InjectImage(_ *render.Image, frame int, _ *rng.Stream) {
	if p.frame < 0 {
		p.frame = frame
	}
}
func (*firstInput) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}
func (*firstInput) Reset() {}
func (*firstInput) Transform(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	ctl.Brake = 1
	return ctl
}

func TestNestedWindowsIntersect(t *testing.T) {
	for _, c := range []struct{ a, b int }{{3, 7}, {7, 3}, {5, 5}} {
		probe := &firstInput{frame: -1}
		src := InjectorSource{Name: "first", New: func() interface{} { return probe }}
		inst, err := Instantiate(Windowed(Windowed(src, c.a), c.b))
		if err != nil {
			t.Fatal(err)
		}
		roles := fault.RolesOf(inst)
		r := rng.New(1)
		timing := -1
		for frame := 0; frame < 12; frame++ {
			roles.InjectImage(render.NewImage(2, 2), frame, r)
			if roles.Transform(physics.Control{}, frame, r).Brake == 1 && timing < 0 {
				timing = frame
			}
		}
		if want := max(c.a, c.b); probe.frame != want || timing != want {
			t.Errorf("Windowed(Windowed(src, %d), %d): input from frame %d, timing from %d; want %d",
				c.a, c.b, probe.frame, timing, want)
		}
	}
}

func TestWindowedUnknownInjectorFailsValidation(t *testing.T) {
	// A windowed source over an unregistered name used to pass Validate and
	// then panic inside an episode goroutine.
	cfg := tinyConfig(t, []InjectorSource{Windowed(Registry("nope"), 30)})
	_, err := NewRunner(cfg)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("NewRunner = %v, want an error naming the unknown injector \"nope\"", err)
	}
	if _, err := Instantiate(Windowed(Windowed(Registry("nope"), 30), 40)); err == nil {
		t.Error("Instantiate resolved a twice-windowed unknown injector")
	}
}
