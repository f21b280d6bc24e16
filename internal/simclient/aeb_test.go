package simclient

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/fault/sensorfault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/safety"
)

// frameWithLidar builds a frame with an obstacle dead ahead in the scan.
// Speed is set to a crawl: the agent's anti-inertia creep guard then
// guarantees the un-guarded baseline control has Brake == 0, so any full
// brake in these tests is attributable to the AEB.
func frameWithLidar(t *testing.T, forward float64) *proto.SensorFrame {
	t.Helper()
	f := testFrame(t, 0)
	f.Speed = 0.5
	f.Lidar = make([]float64, 36)
	for i := range f.Lidar {
		f.Lidar[i] = 60
	}
	f.Lidar[0] = forward
	return f
}

func TestAEBOverridesAgentControl(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(1)}
	d.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	d.Reset()

	ctl, err := d.Drive(frameWithLidar(t, 2)) // 2 m ahead: inside MinTrigger
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Brake != 1 || ctl.Throttle != 0 {
		t.Errorf("AEB did not override: %+v", ctl)
	}
}

func TestAEBInactiveWhenClear(t *testing.T) {
	a := testAgent(t)
	clean := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(2)}
	clean.Reset()
	want, err := clean.Drive(frameWithLidar(t, 55))
	if err != nil {
		t.Fatal(err)
	}

	guarded := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(2)}
	guarded.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	guarded.Reset()
	got, err := guarded.Drive(frameWithLidar(t, 55))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("AEB altered control with a clear road: %+v vs %+v", got, want)
	}
}

func TestLidarDropoutBlindsAEB(t *testing.T) {
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(sensorfault.NewLidarDropout()), Rand: rng.New(3)}
	d.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	d.Reset()

	// Obstacle 2 m ahead, but the dropout fault erases (almost) all
	// returns; run several frames — with p=0.9 per beam the forward beam
	// survives rarely, so most frames must NOT brake.
	brakes := 0
	const frames = 50
	for i := 0; i < frames; i++ {
		f := frameWithLidar(t, 2)
		f.Frame = uint32(i)
		ctl, err := d.Drive(f)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Brake == 1 && ctl.Throttle == 0 {
			brakes++
		}
	}
	if brakes > frames/2 {
		t.Errorf("AEB braked on %d/%d frames despite LIDAR dropout", brakes, frames)
	}
}

func TestLidarGhostCausesPhantomBraking(t *testing.T) {
	a := testAgent(t)
	ghost := sensorfault.NewLidarGhost()
	ghost.Prob = 0.5 // aggressive, to make the test statistical quickly
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(ghost), Rand: rng.New(4)}
	d.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	d.Reset()

	// Clear road — every brake is a phantom.
	brakes := 0
	const frames = 30
	for i := 0; i < frames; i++ {
		f := frameWithLidar(t, 60)
		f.Frame = uint32(i)
		ctl, err := d.Drive(f)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Brake == 1 && ctl.Throttle == 0 {
			brakes++
		}
	}
	if brakes == 0 {
		t.Error("ghost echoes never triggered phantom braking")
	}
}

func TestAEBSeesPostFaultLidarOnly(t *testing.T) {
	// The frame's original scan must not be mutated by the driver (the
	// injector works on a copy).
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(sensorfault.NewLidarDropout()), Rand: rng.New(5)}
	d.Reset()
	f := frameWithLidar(t, 2)
	orig := append([]float64(nil), f.Lidar...)
	if _, err := d.Drive(f); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if f.Lidar[i] != orig[i] {
			t.Fatal("driver mutated the frame's lidar payload")
		}
	}
}
