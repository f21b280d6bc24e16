package hwfault

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

func TestFlipBitInvolution(t *testing.T) {
	err := quick.Check(func(v float64, k uint) bool {
		k %= 64
		return FlipBit(FlipBit(v, k), k) == v || math.IsNaN(v)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestFlipBitChangesValue(t *testing.T) {
	v := 0.5
	for k := uint(0); k < 64; k++ {
		if FlipBit(v, k) == v {
			t.Errorf("bit %d flip did not change 0.5", k)
		}
	}
}

func TestFlipBitsDistinct(t *testing.T) {
	// Flipping n distinct bits then flipping the same stream again isn't
	// guaranteed inverse (different random picks), but n flips must change
	// the value for a non-degenerate input.
	r := rng.New(1)
	v := 1.25
	for i := 0; i < 100; i++ {
		if FlipBits(v, 3, r) == v {
			t.Fatal("3 distinct bit flips left value unchanged")
		}
	}
}

func TestControlBitFlipRate(t *testing.T) {
	c := NewControlBitFlip()
	r := rng.New(2)
	ctl := physics.Control{Steer: 0.5, Throttle: 0.5, Brake: 0.5}
	changed := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if c.InjectControl(ctl, i, r) != ctl {
			changed++
		}
	}
	frac := float64(changed) / n
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("bit-flip rate %v, want ~0.10", frac)
	}
}

func TestControlBitFlipWindow(t *testing.T) {
	flip := NewControlBitFlip()
	flip.Prob = 1
	c := &fault.Roles{Output: flip, Window: fault.Window{StartFrame: 50}}
	ctl := physics.Control{Steer: 0.5}
	if got := c.InjectControl(ctl, 10, rng.New(3)); got != ctl {
		t.Error("flip fired before window")
	}
	if got := c.InjectControl(ctl, 60, rng.New(3)); got == ctl {
		t.Error("flip did not fire inside window")
	}
}

func TestControlStuck(t *testing.T) {
	c := NewControlStuck()
	ctl := physics.Control{Steer: -0.8, Throttle: 0.3}
	got := c.InjectControl(ctl, 0, rng.New(4))
	if got.Steer != 0.3 {
		t.Errorf("stuck steer = %v, want 0.3", got.Steer)
	}
	if got.Throttle != 0.3 {
		t.Errorf("throttle altered: %v", got.Throttle)
	}

	c2 := &ControlStuck{Field: StuckBrake, Value: 1}
	got = c2.InjectControl(physics.Control{}, 0, rng.New(5))
	if got.Brake != 1 {
		t.Errorf("stuck brake = %v", got.Brake)
	}
	c3 := &ControlStuck{Field: StuckThrottle, Value: 0.9}
	got = c3.InjectControl(physics.Control{}, 0, rng.New(6))
	if got.Throttle != 0.9 {
		t.Errorf("stuck throttle = %v", got.Throttle)
	}
}

func TestPixelBitFlipChangesImage(t *testing.T) {
	im := render.NewImage(16, 12)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	// Baseline must include the quantize/dequantize the injector performs,
	// which shifts every value slightly.
	quantized, err := render.ImageFromBytes(im.W, im.H, im.ToBytes())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPixelBitFlip()
	p.InjectImage(im, 0, rng.New(7))
	diff := 0
	for i := range im.Pix {
		if im.Pix[i] != quantized.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("pixel bit flips changed nothing")
	}
	// At most FlipsPerFrame channel values change (flips may collide).
	if diff > p.FlipsPerFrame {
		t.Errorf("%d channel values changed from %d flips", diff, p.FlipsPerFrame)
	}
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatal("bit flip left pixel out of [0,1]")
		}
	}
}

func TestPixelBitFlipMeasurementsUntouched(t *testing.T) {
	p := NewPixelBitFlip()
	s, x, y := p.InjectMeasurements(1, 2, 3, 0, rng.New(8))
	if s != 1 || x != 2 || y != 3 {
		t.Error("pixel fault touched measurements")
	}
}

func TestSanitizerTamesFlippedControls(t *testing.T) {
	// Whatever monster a bit flip creates, the physics boundary clamps it:
	// this is the property the end-to-end system relies on.
	c := NewControlBitFlip()
	c.Prob = 1
	c.Bits = 3
	r := rng.New(9)
	for i := 0; i < 1000; i++ {
		bad := c.InjectControl(physics.Control{Steer: 0.1, Throttle: 0.9}, i, r)
		s := bad.Sanitize()
		if s.Steer < -1 || s.Steer > 1 || math.IsNaN(s.Steer) ||
			s.Throttle < 0 || s.Throttle > 1 || math.IsNaN(s.Throttle) ||
			s.Brake < 0 || s.Brake > 1 || math.IsNaN(s.Brake) {
			t.Fatalf("sanitizer let through %+v", s)
		}
	}
}

func TestRegistered(t *testing.T) {
	for name, class := range map[string]fault.Class{
		ControlBitFlipName: fault.ClassHardware,
		ControlStuckName:   fault.ClassHardware,
		PixelBitFlipName:   fault.ClassHardware,
	} {
		s, err := fault.Lookup(name)
		if err != nil {
			t.Errorf("%s not registered", name)
			continue
		}
		if s.Class != class {
			t.Errorf("%s class = %v", name, s.Class)
		}
	}
}
