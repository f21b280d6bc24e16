package sensorfault

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/rng"
)

func fullScan(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestLidarDropoutSilencesBeams(t *testing.T) {
	d := NewLidarDropout()
	ranges := fullScan(36, 8) // everything 8 m away
	d.InjectLidar(ranges, 0, rng.New(1))
	dropped := 0
	for _, v := range ranges {
		switch v {
		case d.MaxRange:
			dropped++
		case 8:
		default:
			t.Fatalf("beam has unexpected value %v", v)
		}
	}
	if dropped < 25 { // p=0.9 over 36 beams
		t.Errorf("only %d/36 beams dropped at p=0.9", dropped)
	}
}

func TestLidarDropoutWindow(t *testing.T) {
	d := &fault.Roles{Lidar: NewLidarDropout(), Window: fault.Window{StartFrame: 100}}
	ranges := fullScan(36, 8)
	d.InjectLidar(ranges, 5, rng.New(2))
	for _, v := range ranges {
		if v != 8 {
			t.Fatal("dropout fired outside window")
		}
	}
}

func TestLidarGhostInjectsShortEchoes(t *testing.T) {
	g := NewLidarGhost()
	ranges := fullScan(360, 60)
	g.InjectLidar(ranges, 0, rng.New(3))
	ghosts := 0
	for _, v := range ranges {
		if v < 60 {
			ghosts++
			if v < g.MinRange || v > g.MaxRange {
				t.Fatalf("ghost echo %v outside [%v, %v]", v, g.MinRange, g.MaxRange)
			}
		}
	}
	frac := float64(ghosts) / 360
	if frac < 0.03 || frac > 0.15 {
		t.Errorf("ghost fraction %v, want ~0.08", frac)
	}
}

func TestLidarFaultsLeaveOtherSensorsAlone(t *testing.T) {
	for _, inj := range []fault.InputInjector{NewLidarDropout(), NewLidarGhost()} {
		s, x, y := inj.InjectMeasurements(5, 1, 2, 0, rng.New(4))
		if s != 5 || x != 1 || y != 2 {
			t.Errorf("%s touched scalar measurements", inj.Name())
		}
	}
}

func TestLidarFaultsRegistered(t *testing.T) {
	for _, name := range []string{LidarDropoutName, LidarGhostName} {
		s, err := fault.Lookup(name)
		if err != nil {
			t.Errorf("%s not registered", name)
			continue
		}
		inst := s.New()
		if _, ok := inst.(fault.InputInjector); !ok {
			t.Errorf("%s not an InputInjector", name)
		}
		if _, ok := inst.(fault.LidarInjector); !ok {
			t.Errorf("%s not a LidarInjector", name)
		}
	}
}
