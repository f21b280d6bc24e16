package simclient

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/fault/sensorfault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/safety"
)

// windowedDropout mirrors the exact bundle campaign.Windowed builds — the
// shape that used to lose the LIDAR role on its way to the driver.
func windowedDropout(start int) fault.InputInjector {
	roles := fault.RolesOf(sensorfault.NewLidarDropout())
	roles.Window = fault.Window{StartFrame: start}
	return roles
}

func TestWindowedLidarFaultChangesAEBOutcome(t *testing.T) {
	// Obstacle 2 m dead ahead the whole episode. Before the window the
	// scan is clean, so the AEB must brake on every frame; once the
	// dropout window opens it erases most returns and the AEB goes blind
	// on most frames. The pre-fix wrappers dropped the LIDAR role, so the
	// fault was a no-op and the AEB braked on all frames regardless.
	const (
		start  = 10
		frames = 60
	)
	a := testAgent(t)
	d := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(windowedDropout(start)), Rand: rng.New(11)}
	d.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	d.Reset()

	brakesBefore, brakesInside := 0, 0
	for i := 0; i < frames; i++ {
		f := frameWithLidar(t, 2)
		f.Frame = uint32(i)
		ctl, err := d.Drive(f)
		if err != nil {
			t.Fatal(err)
		}
		braked := ctl.Brake == 1 && ctl.Throttle == 0
		switch {
		case i < start && braked:
			brakesBefore++
		case i >= start && braked:
			brakesInside++
		}
	}
	if brakesBefore != start {
		t.Errorf("AEB braked on %d/%d clean frames before the window", brakesBefore, start)
	}
	if inside := frames - start; brakesInside > inside/2 {
		t.Errorf("AEB braked on %d/%d frames inside the dropout window — windowed lidar fault is a no-op",
			brakesInside, inside)
	}
}

func TestFaultedDriverLidarPathNoExtraAllocs(t *testing.T) {
	// The lidar-fault copy must reuse the driver's scratch slice: driving
	// with a lidar injector may not allocate more per frame than driving
	// without one (the shared pipeline cost — image decode, agent forward
	// pass — is identical on both sides).
	a := testAgent(t)
	plain := &FaultedDriver{Agent: a.Clone(), Rand: rng.New(12)}
	plain.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	plain.Reset()
	faulted := &FaultedDriver{Agent: a.Clone(), Roles: *fault.RolesOf(windowedDropout(0)), Rand: rng.New(12)}
	faulted.AEB = safety.NewAEB(physics.DefaultVehicleParams())
	faulted.Reset()

	f := frameWithLidar(t, 2)
	measure := func(d *FaultedDriver) float64 {
		// Warm up once so the scratch slice reaches capacity.
		if _, err := d.Drive(f); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := d.Drive(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(plain)
	got := measure(faulted)
	if got > base {
		t.Errorf("lidar fault path allocates: %v allocs/frame vs %v baseline", got, base)
	}
}
