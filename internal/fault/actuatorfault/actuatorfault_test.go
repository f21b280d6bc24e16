package actuatorfault

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

func TestStuckThrottleOverridesCommand(t *testing.T) {
	s := NewStuckThrottle()
	r := rng.New(1)
	ctl := s.InjectControl(physics.Control{Throttle: 0, Brake: 1}, 0, r)
	if ctl.Throttle != s.Value {
		t.Errorf("throttle = %v, want stuck %v", ctl.Throttle, s.Value)
	}
	if ctl.Brake != 1 {
		t.Error("stuck throttle must not disable the independent brake channel")
	}
}

func TestBrakeFadeScalesBrakeOnly(t *testing.T) {
	b := NewBrakeFade()
	r := rng.New(2)
	in := physics.Control{Steer: 0.2, Throttle: 0.4, Brake: 1}
	ctl := b.InjectControl(in, 0, r)
	if ctl.Brake != b.Gain {
		t.Errorf("brake = %v, want faded %v", ctl.Brake, b.Gain)
	}
	if ctl.Steer != in.Steer || ctl.Throttle != in.Throttle {
		t.Error("brake fade altered non-brake channels")
	}
}

func TestSteerBiasShiftsAndClamps(t *testing.T) {
	s := NewSteerBias()
	r := rng.New(3)
	ctl := s.InjectControl(physics.Control{Steer: 0}, 0, r)
	if ctl.Steer == 0 {
		t.Error("steer bias left the command untouched")
	}
	s2 := &SteerBias{Bias: 5}
	ctl = s2.InjectControl(physics.Control{Steer: 0.9}, 0, r)
	if ctl.Steer != 1 {
		t.Errorf("steer = %v, want clamped 1", ctl.Steer)
	}
}

func TestActuatorFaultsWindowAndRegistry(t *testing.T) {
	r := rng.New(4)
	in := physics.Control{Steer: 0.1, Throttle: 0.2, Brake: 0.3}
	for _, name := range []string{StuckThrottleName, BrakeFadeName, SteerBiasName} {
		spec, err := fault.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Class != fault.ClassActuator {
			t.Errorf("%s class = %v", name, spec.Class)
		}
		inj, ok := spec.New().(fault.OutputInjector)
		if !ok {
			t.Fatalf("%s is not an OutputInjector", name)
		}
		if inj.InjectControl(in, 0, r) == in {
			t.Errorf("%s was a no-op inside its window", name)
		}
	}
	// Windowed variants pass through before activation.
	for _, inj := range []fault.OutputInjector{
		&StuckThrottle{Value: 0.7},
		&BrakeFade{Gain: 0.3},
		&SteerBias{Bias: 0.5},
	} {
		gated := &fault.Roles{InjectorName: inj.Name(), Output: inj, Window: fault.Window{StartFrame: 10}}
		if gated.InjectControl(in, 5, r) != in {
			t.Errorf("%s fired before its window", inj.Name())
		}
	}
}
