package simclient

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/fault/imagefault"
	"github.com/avfi/avfi/internal/fault/mlfault"
	"github.com/avfi/avfi/internal/fault/timingfault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

func testAgent(t *testing.T) *agent.Agent {
	t.Helper()
	a, err := agent.New(agent.Config{
		ImageW: 16, ImageH: 12, Conv1: 4, Conv2: 4,
		FeatDim: 8, MeasDim: 4, HeadHidden: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testFrame(t *testing.T, frameNum uint32) *proto.SensorFrame {
	t.Helper()
	img := render.NewImage(16, 12)
	r := rng.New(uint64(frameNum) + 1)
	for i := range img.Pix {
		img.Pix[i] = r.Float64()
	}
	return &proto.SensorFrame{
		Frame:  frameNum,
		ImageW: 16, ImageH: 12,
		Pixels:  img.ToBytes(),
		Speed:   5,
		Command: 1, // follow
	}
}

func TestFaultedDriverNoFaultsMatchesAgent(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(1)}
	d.Reset()
	frame := testFrame(t, 0)

	got, err := d.Drive(frame)
	if err != nil {
		t.Fatal(err)
	}
	img, err := render.ImageFromBytes(16, 12, frame.Pixels)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Act(img, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("driver without faults diverged: %+v vs %+v", got, want)
	}
}

func TestFaultedDriverInputFaultChangesControl(t *testing.T) {
	a := testAgent(t)
	clean := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(2)}
	noisy := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(imagefault.NewSolidOcclusion()), Rand: rng.New(2)}
	clean.Reset()
	noisy.Reset()
	frame := testFrame(t, 0)

	c1, err := clean.Drive(frame)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := noisy.Drive(testFrame(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("input fault did not change the control")
	}
}

func TestFaultedDriverOutputFault(t *testing.T) {
	a := testAgent(t)
	stuck := &stuckOutput{}
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(stuck), Rand: rng.New(3)}
	d.Reset()
	got, err := d.Drive(testFrame(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Steer != 0.77 {
		t.Errorf("output fault not applied: %+v", got)
	}
}

// stuckOutput is a test OutputInjector forcing steer = 0.77.
type stuckOutput struct{}

func (stuckOutput) Name() string { return "test-stuck" }
func (stuckOutput) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	ctl.Steer = 0.77
	return ctl
}

func TestFaultedDriverTimingDelay(t *testing.T) {
	a := testAgent(t)
	delay := timingfault.NewDelay(2)
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(delay), Rand: rng.New(4)}
	d.Reset()

	// Feed three distinct frames; with delay 2 the third output equals the
	// first frame's undelayed control.
	var controls []physics.Control
	for i := uint32(0); i < 3; i++ {
		c, err := d.Drive(testFrame(t, i))
		if err != nil {
			t.Fatal(err)
		}
		controls = append(controls, c)
	}
	ref := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(4)}
	ref.Reset()
	first, err := ref.Drive(testFrame(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if controls[2] != first {
		t.Errorf("delayed control at t=2 is %+v, want t=0's %+v", controls[2], first)
	}
}

func TestApplyModelFaultCorruptsClone(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(5)}
	noise := mlfault.NewWeightNoise()
	noise.Sigma = 5
	d.ApplyModelFault(noise, rng.New(6))

	// Driver's agent now differs from the original.
	frame := testFrame(t, 0)
	faulty, err := d.Drive(frame)
	if err != nil {
		t.Fatal(err)
	}
	cleanD := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(5)}
	clean, err := cleanD.Drive(testFrame(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if faulty == clean {
		t.Error("model fault had no effect on the driver")
	}
	// The source agent is untouched.
	var maxAbs float64
	a.VisitParams(func(_ string, _ int, _ string, v *tensor.Tensor) {
		for _, x := range v.Data() {
			maxAbs = max(maxAbs, math.Abs(x))
		}
	})
	if math.IsInf(maxAbs, 0) || maxAbs > 100 {
		t.Error("model fault leaked into the shared agent")
	}
}

func TestFaultedDriverRejectsBadFrame(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(7)}
	bad := testFrame(t, 0)
	bad.Pixels = bad.Pixels[:10]
	if _, err := d.Drive(bad); err == nil {
		t.Error("mismatched pixel payload did not error")
	}
}

func TestFaultedDriverUnknownCommandSafe(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(8)}
	frame := testFrame(t, 0)
	frame.Command = 250 // corrupted on the wire
	if _, err := d.Drive(frame); err != nil {
		t.Errorf("corrupted command byte crashed the driver: %v", err)
	}
}

var _ fault.OutputInjector = stuckOutput{}
