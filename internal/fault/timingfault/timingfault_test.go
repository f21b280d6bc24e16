package timingfault

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

func ctlAt(i int) physics.Control {
	return physics.Control{Steer: float64(i) / 100}
}

func TestDelayZeroIsIdentity(t *testing.T) {
	d := NewDelay(0)
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if got := d.Transform(ctlAt(i), i, r); got != ctlAt(i) {
			t.Fatalf("Delay(0) altered frame %d", i)
		}
	}
}

func TestDelayShiftsByK(t *testing.T) {
	const k = 5
	d := NewDelay(k)
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		got := d.Transform(ctlAt(i), i, r)
		want := ctlAt(0) // pipeline filling: oldest replayed
		if i >= k {
			want = ctlAt(i - k)
		}
		if got != want {
			t.Fatalf("frame %d: got steer %v, want %v", i, got.Steer, want.Steer)
		}
	}
}

func TestDelayResetClearsQueue(t *testing.T) {
	d := NewDelay(3)
	r := rng.New(3)
	for i := 0; i < 10; i++ {
		d.Transform(ctlAt(i), i, r)
	}
	d.Reset()
	if got := d.Transform(ctlAt(100), 0, r); got != ctlAt(100) {
		t.Errorf("after reset, first output = %v (stale queue)", got.Steer)
	}
}

func TestDelayWindowGates(t *testing.T) {
	d := &fault.Roles{Timing: NewDelay(5), Window: fault.Window{StartFrame: 1000}}
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		if got := d.Transform(ctlAt(i), i, r); got != ctlAt(i) {
			t.Fatal("delay active outside window")
		}
	}
}

func TestDropHoldsLastSetpoint(t *testing.T) {
	d := NewDrop(1.0) // every frame dropped
	r := rng.New(5)
	first := d.Transform(ctlAt(0), 0, r)
	if first != ctlAt(0) {
		t.Fatal("first command (nothing to hold) was dropped")
	}
	for i := 1; i < 10; i++ {
		if got := d.Transform(ctlAt(i), i, r); got != ctlAt(0) {
			t.Fatalf("frame %d: got %v, want held setpoint 0", i, got.Steer)
		}
	}
}

func TestDropZeroProbIsIdentity(t *testing.T) {
	d := NewDrop(0)
	r := rng.New(6)
	for i := 0; i < 20; i++ {
		if got := d.Transform(ctlAt(i), i, r); got != ctlAt(i) {
			t.Fatal("Drop(0) altered stream")
		}
	}
}

func TestDropStatisticalRate(t *testing.T) {
	d := NewDrop(0.5)
	r := rng.New(7)
	dropped := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if d.Transform(ctlAt(i), i, r) != ctlAt(i) {
			dropped++
		}
	}
	frac := float64(dropped) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("drop rate %v, want ~0.5", frac)
	}
}

func TestReorderDeliversLateCommand(t *testing.T) {
	d := NewReorder(1.0) // always delay once primed
	r := rng.New(8)
	out0 := d.Transform(ctlAt(0), 0, r) // nothing to replay: passes
	if out0 != ctlAt(0) {
		t.Fatal("first command altered")
	}
	out1 := d.Transform(ctlAt(1), 1, r) // delayed: replay 0
	if out1 != ctlAt(0) {
		t.Fatalf("frame 1: got %v, want replay of 0", out1.Steer)
	}
	out2 := d.Transform(ctlAt(2), 2, r) // late command 1 arrives; 2 superseded
	if out2 != ctlAt(1) {
		t.Fatalf("frame 2: got %v, want late command 1", out2.Steer)
	}
}

func TestReorderZeroProbIsIdentity(t *testing.T) {
	d := NewReorder(0)
	r := rng.New(9)
	for i := 0; i < 20; i++ {
		if got := d.Transform(ctlAt(i), i, r); got != ctlAt(i) {
			t.Fatal("Reorder(0) altered stream")
		}
	}
}

func TestReorderResetsClean(t *testing.T) {
	d := NewReorder(1.0)
	r := rng.New(10)
	d.Transform(ctlAt(0), 0, r)
	d.Transform(ctlAt(1), 1, r)
	d.Reset()
	if got := d.Transform(ctlAt(5), 0, r); got != ctlAt(5) {
		t.Errorf("after reset: got %v", got.Steer)
	}
}

func TestRegistered(t *testing.T) {
	for _, name := range []string{DelayName, DropName, ReorderName} {
		s, err := fault.Lookup(name)
		if err != nil {
			t.Errorf("%s not registered", name)
			continue
		}
		if s.Class != fault.ClassTiming {
			t.Errorf("%s class = %v", name, s.Class)
		}
		inst, ok := s.New().(fault.TimingInjector)
		if !ok {
			t.Errorf("%s not a TimingInjector", name)
			continue
		}
		inst.Reset()
	}
}
