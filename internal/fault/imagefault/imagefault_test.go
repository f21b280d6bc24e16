package imagefault

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// gradientImage returns a deterministic non-trivial test frame.
func gradientImage(w, h int) *render.Image {
	im := render.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float64(x+y) / float64(w+h)
			im.SetRGB(y, x, v, v/2, 1-v)
		}
	}
	return im
}

func countDiff(a, b *render.Image) int {
	n := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			n++
		}
	}
	return n
}

func TestAllRegistered(t *testing.T) {
	for _, name := range []string{GaussianName, SaltPepperName, SolidOccName, TranspOccName, WaterDropName} {
		s, err := fault.Lookup(name)
		if err != nil {
			t.Errorf("%s not registered: %v", name, err)
			continue
		}
		if s.Class != fault.ClassData {
			t.Errorf("%s class = %v, want data", name, s.Class)
		}
		if _, ok := s.New().(fault.InputInjector); !ok {
			t.Errorf("%s instance is not an InputInjector", name)
		}
	}
}

func TestGaussianStatistics(t *testing.T) {
	im := gradientImage(32, 24)
	orig := im.Clone()
	g := NewGaussian()
	g.InjectImage(im, 0, rng.New(1))

	diff := countDiff(orig, im)
	if diff < len(im.Pix)/2 {
		t.Errorf("gaussian changed only %d/%d values", diff, len(im.Pix))
	}
	// Mean shift should be small (zero-mean noise, modulo clamping).
	if d := math.Abs(im.Mean() - orig.Mean()); d > 0.05 {
		t.Errorf("gaussian shifted mean by %v", d)
	}
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatal("gaussian left pixels out of range")
		}
	}
}

func TestGaussianWindowGates(t *testing.T) {
	im := gradientImage(16, 12)
	orig := im.Clone()
	g := &fault.Roles{Input: NewGaussian(), Window: fault.Window{StartFrame: 100}}
	g.InjectImage(im, 5, rng.New(2))
	if countDiff(orig, im) != 0 {
		t.Error("windowed injector fired outside its window")
	}
}

func TestSaltPepperFraction(t *testing.T) {
	im := gradientImage(64, 48)
	orig := im.Clone()
	s := NewSaltPepper()
	s.InjectImage(im, 0, rng.New(3))

	// Corrupted pixels are pure black or white in all channels.
	corrupted := 0
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.RGB(y, x)
			or, og, ob := orig.RGB(y, x)
			if r != or || g != og || b != ob {
				corrupted++
				if !(r == 0 && g == 0 && b == 0) && !(r == 1 && g == 1 && b == 1) {
					t.Fatalf("corrupted pixel (%d,%d) is %v,%v,%v — not salt or pepper", x, y, r, g, b)
				}
			}
		}
	}
	frac := float64(corrupted) / float64(im.W*im.H)
	if frac < 0.13 || frac > 0.28 {
		t.Errorf("salt&pepper hit fraction %v, want ~0.20", frac)
	}
}

func TestSolidOcclusionGeometry(t *testing.T) {
	im := gradientImage(40, 30)
	s := NewSolidOcclusion()
	s.InjectImage(im, 0, rng.New(4))

	// Count black pixels: must be ~FracW*FracH of the frame.
	black := 0
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.RGB(y, x)
			if r == 0 && g == 0 && b == 0 {
				black++
			}
		}
	}
	want := int(0.4 * 0.5 * float64(im.W*im.H))
	if black < want*8/10 || black > want*13/10 {
		t.Errorf("occluded pixels %d, want ~%d", black, want)
	}
}

func TestSolidOcclusionStableAcrossFrames(t *testing.T) {
	s := NewSolidOcclusion()
	r := rng.New(5)
	a := gradientImage(40, 30)
	s.InjectImage(a, 0, r)
	b := gradientImage(40, 30)
	s.InjectImage(b, 1, r)
	if countDiff(a, b) != 0 {
		t.Error("occlusion rectangle moved between frames")
	}
}

func TestTransparentOcclusionAttenuates(t *testing.T) {
	im := gradientImage(40, 30)
	orig := im.Clone()
	o := NewTransparentOcclusion()
	o.InjectImage(im, 0, rng.New(6))

	diff := countDiff(orig, im)
	if diff == 0 {
		t.Fatal("transparent occlusion changed nothing")
	}
	// Unlike solid occlusion, no pixel should be forced to pure black.
	for i := range im.Pix {
		if orig.Pix[i] > 0.2 && im.Pix[i] == 0 {
			t.Fatal("transparent occlusion blacked out a pixel")
		}
	}
}

func TestWaterDropBlursLocally(t *testing.T) {
	// High-frequency checkerboard: blur must reduce local variance.
	im := render.NewImage(48, 36)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float64((x + y) % 2)
			im.SetRGB(y, x, v, v, v)
		}
	}
	orig := im.Clone()
	w := NewWaterDrop()
	w.InjectImage(im, 0, rng.New(7))

	if countDiff(orig, im) == 0 {
		t.Fatal("water drop changed nothing")
	}
	// Changed pixels should be blurred toward the local mean (0.5-ish),
	// brightened by 1.15.
	blurred := 0
	for i := range im.Pix {
		if im.Pix[i] != orig.Pix[i] && im.Pix[i] > 0.3 && im.Pix[i] < 0.8 {
			blurred++
		}
	}
	if blurred < 20 {
		t.Errorf("only %d pixels look blurred", blurred)
	}
}

func TestWaterDropSlidesOverTime(t *testing.T) {
	w := NewWaterDrop()
	r := rng.New(8)
	a := gradientImage(48, 36)
	w.InjectImage(a, 0, r)
	b := gradientImage(48, 36)
	w.InjectImage(b, 200, r) // 200 frames later the droplets moved
	if countDiff(a, b) == 0 {
		t.Error("droplets did not slide across frames")
	}
}

func TestInjectorsDeterministic(t *testing.T) {
	mks := map[string]func() fault.InputInjector{
		GaussianName:   func() fault.InputInjector { return NewGaussian() },
		SaltPepperName: func() fault.InputInjector { return NewSaltPepper() },
		SolidOccName:   func() fault.InputInjector { return NewSolidOcclusion() },
		TranspOccName:  func() fault.InputInjector { return NewTransparentOcclusion() },
		WaterDropName:  func() fault.InputInjector { return NewWaterDrop() },
	}
	for name, mk := range mks {
		run := func() *render.Image {
			im := gradientImage(32, 24)
			mk().InjectImage(im, 3, rng.New(42))
			return im
		}
		if countDiff(run(), run()) != 0 {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestMeasurementsUntouchedByCameraFaults(t *testing.T) {
	injs := []fault.InputInjector{
		NewGaussian(), NewSaltPepper(), NewSolidOcclusion(),
		NewTransparentOcclusion(), NewWaterDrop(),
	}
	for _, inj := range injs {
		s, x, y := inj.InjectMeasurements(5, 10, 20, 0, rng.New(1))
		if s != 5 || x != 10 || y != 20 {
			t.Errorf("%s modified measurements", inj.Name())
		}
	}
}
