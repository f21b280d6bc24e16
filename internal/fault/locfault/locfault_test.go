package locfault

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/rng"
)

func TestGPSWalkAccumulates(t *testing.T) {
	g := NewGPSWalk()
	r := rng.New(1)
	var maxErr float64
	for i := 0; i < 200; i++ {
		_, x, y := g.InjectMeasurements(5, 100, 200, i, r)
		if e := math.Hypot(x-100, y-200); e > maxErr {
			maxErr = e
		}
	}
	if maxErr < g.StepSigma {
		t.Errorf("random walk never wandered past one step (max error %v)", maxErr)
	}
	// Speed is untouched.
	s, _, _ := g.InjectMeasurements(5, 0, 0, 200, r)
	if s != 5 {
		t.Error("GPS walk corrupted the speed channel")
	}
}

func TestFusionDivergeGrows(t *testing.T) {
	f := NewFusionDiverge()
	r := rng.New(2)
	_, x0, y0 := f.InjectMeasurements(5, 0, 0, 0, r)
	early := math.Hypot(x0, y0)
	var late float64
	var lateSpeed float64
	for i := 1; i <= 60; i++ {
		s, x, y := f.InjectMeasurements(5, 0, 0, i, r)
		late = math.Hypot(x, y)
		lateSpeed = s
	}
	if late <= early*10 {
		t.Errorf("divergence did not grow: %v m at frame 0 vs %v m at frame 60", early, late)
	}
	if lateSpeed <= 5 {
		t.Error("fused speed estimate did not inflate")
	}
}

func TestLocFaultsDeterministicAndRegistered(t *testing.T) {
	for _, name := range []string{GPSWalkName, FusionDivergeName} {
		spec, err := fault.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Class != fault.ClassLocalization {
			t.Errorf("%s class = %v", name, spec.Class)
		}
		run := func() [][3]float64 {
			inj := spec.New().(fault.InputInjector)
			r := rng.New(9)
			var out [][3]float64
			for i := 0; i < 50; i++ {
				s, x, y := inj.InjectMeasurements(3, 10, 20, i, r)
				out = append(out, [3]float64{s, x, y})
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: frame %d differs across identical runs", name, i)
			}
		}
	}
}

func TestLocFaultsGateOnWindow(t *testing.T) {
	g := &GPSWalk{StepSigma: 1}
	f := &FusionDiverge{InitialMeters: 5, GrowthPerFrame: 0.5}
	r := rng.New(3)
	for _, inner := range []fault.InputInjector{g, f} {
		inj := &fault.Roles{InjectorName: inner.Name(), Input: inner, Window: fault.Window{StartFrame: 100}}
		s, x, y := inj.InjectMeasurements(5, 1, 2, 10, r)
		if s != 5 || x != 1 || y != 2 {
			t.Errorf("%s fired before its window", inj.Name())
		}
	}
}
