package sensorfault

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

func TestGPSDriftGrows(t *testing.T) {
	g := NewGPSDrift()
	r := rng.New(1)
	_, x1, y1 := g.InjectMeasurements(5, 0, 0, 0, r)
	_, x2, y2 := g.InjectMeasurements(5, 0, 0, 100, r)
	d1 := math.Hypot(x1, y1)
	d2 := math.Hypot(x2, y2)
	if d1 == 0 {
		t.Error("no drift on first faulty frame")
	}
	if d2 <= d1 {
		t.Errorf("drift did not grow: %v then %v", d1, d2)
	}
	// Rate: frame 100 gives ~101*0.05 = 5.05m.
	if math.Abs(d2-5.05) > 0.01 {
		t.Errorf("drift magnitude %v, want ~5.05", d2)
	}
}

func TestGPSDriftDirectionStable(t *testing.T) {
	g := NewGPSDrift()
	r := rng.New(2)
	_, x1, y1 := g.InjectMeasurements(0, 0, 0, 10, r)
	_, x2, y2 := g.InjectMeasurements(0, 0, 0, 20, r)
	// Same direction: cross product ~0, dot positive.
	cross := x1*y2 - y1*x2
	dot := x1*x2 + y1*y2
	if math.Abs(cross) > 1e-9 || dot <= 0 {
		t.Error("drift direction wandered")
	}
}

func TestGPSDriftRespectsWindow(t *testing.T) {
	g := &fault.Roles{Input: NewGPSDrift(), Window: fault.Window{StartFrame: 50}}
	r := rng.New(3)
	_, x, y := g.InjectMeasurements(5, 1, 2, 10, r)
	if x != 1 || y != 2 {
		t.Error("drift before window start")
	}
}

func TestGPSDriftSpeedUntouched(t *testing.T) {
	g := NewGPSDrift()
	s, _, _ := g.InjectMeasurements(7.5, 0, 0, 0, rng.New(4))
	if s != 7.5 {
		t.Error("GPS fault modified speed")
	}
}

func TestSpeedCorruptScales(t *testing.T) {
	s := NewSpeedCorrupt()
	s.Jitter = 0
	r := rng.New(5)
	v, x, y := s.InjectMeasurements(10, 3, 4, 0, r)
	if v != 5 {
		t.Errorf("scaled speed = %v, want 5", v)
	}
	if x != 3 || y != 4 {
		t.Error("speed fault modified GPS")
	}
}

func TestSpeedCorruptNeverNegative(t *testing.T) {
	s := NewSpeedCorrupt()
	s.Scale = 0
	s.Jitter = 5
	r := rng.New(6)
	for i := 0; i < 1000; i++ {
		v, _, _ := s.InjectMeasurements(0.1, 0, 0, i, r)
		if v < 0 {
			t.Fatal("corrupted speed went negative")
		}
	}
}

func TestSpeedCorruptWindow(t *testing.T) {
	s := &fault.Roles{Input: NewSpeedCorrupt(), Window: fault.Window{StartFrame: 10, EndFrame: 20}}
	r := rng.New(7)
	if v, _, _ := s.InjectMeasurements(8, 0, 0, 5, r); v != 8 {
		t.Error("corrupt before window")
	}
	if v, _, _ := s.InjectMeasurements(8, 0, 0, 25, r); v != 8 {
		t.Error("corrupt after window")
	}
}

func TestImagesUntouched(t *testing.T) {
	im := render.NewImage(8, 6)
	im.Pix[0] = 0.5
	NewGPSDrift().InjectImage(im, 0, rng.New(8))
	NewSpeedCorrupt().InjectImage(im, 0, rng.New(9))
	if im.Pix[0] != 0.5 {
		t.Error("measurement fault touched the image")
	}
}

func TestRegistered(t *testing.T) {
	for _, name := range []string{GPSDriftName, SpeedCorruptName} {
		s, err := fault.Lookup(name)
		if err != nil {
			t.Errorf("%s not registered", name)
			continue
		}
		if _, ok := s.New().(fault.InputInjector); !ok {
			t.Errorf("%s not an InputInjector", name)
		}
	}
}
