package hallucinate

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/rng"
)

func clearScan(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 60
	}
	return s
}

func TestPhantomAheadPersistsAtOneDistance(t *testing.T) {
	p := NewPhantomAhead()
	r := rng.New(1)
	var dist float64
	for i := 0; i < 20; i++ {
		scan := clearScan(36)
		p.InjectLidar(scan, i, r)
		if scan[0] < p.MinRange || scan[0] > p.MaxRange {
			t.Fatalf("frame %d: forward beam %v outside phantom bounds", i, scan[0])
		}
		if i == 0 {
			dist = scan[0]
		} else if scan[0] != dist {
			t.Fatalf("phantom moved: %v then %v", dist, scan[0])
		}
		// The cone covers WidthBeams each side (wrapping), nothing else.
		if scan[p.WidthBeams] != dist || scan[36-p.WidthBeams] != dist {
			t.Fatal("phantom cone edge missing")
		}
		if scan[p.WidthBeams+1] != 60 {
			t.Fatal("phantom wider than its cone")
		}
	}
}

func TestPhantomKeepsCloserRealReturns(t *testing.T) {
	p := NewPhantomAhead()
	r := rng.New(2)
	scan := clearScan(36)
	scan[0] = 0.5 // a real object closer than any phantom
	p.InjectLidar(scan, 0, r)
	if scan[0] != 0.5 {
		t.Error("phantom overwrote a closer real return")
	}
}

func TestPhantomFlickerIntermittent(t *testing.T) {
	p := NewPhantomFlicker()
	r := rng.New(3)
	appeared, clear := 0, 0
	for i := 0; i < 100; i++ {
		scan := clearScan(36)
		p.InjectLidar(scan, i, r)
		if scan[0] < 60 {
			appeared++
		} else {
			clear++
		}
	}
	if appeared == 0 || clear == 0 {
		t.Errorf("flicker not intermittent: %d phantom / %d clear frames", appeared, clear)
	}
}

func TestHallucinationsRegisteredWindowedDeterministic(t *testing.T) {
	for _, name := range []string{PhantomAheadName, PhantomFlickerName} {
		spec, err := fault.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Class != fault.ClassPerception {
			t.Errorf("%s class = %v", name, spec.Class)
		}
		if _, ok := spec.New().(fault.LidarInjector); !ok {
			t.Fatalf("%s is not a LidarInjector", name)
		}
		run := func() []float64 {
			inj := spec.New().(fault.LidarInjector)
			r := rng.New(11)
			var out []float64
			for i := 0; i < 40; i++ {
				scan := clearScan(36)
				inj.InjectLidar(scan, i, r)
				out = append(out, scan...)
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: output differs across identical runs", name)
			}
		}
	}
	// Window gating.
	p := &fault.Roles{
		Lidar:  &PhantomAhead{MinRange: 1, MaxRange: 2, WidthBeams: 1},
		Window: fault.Window{StartFrame: 5},
	}
	r := rng.New(4)
	scan := clearScan(8)
	p.InjectLidar(scan, 0, r)
	if scan[0] != 60 {
		t.Error("phantom appeared before its window")
	}
}
