package agent

import (
	"math"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

func withRNN(cfg Config, hidden int) Config {
	cfg.UseRNN, cfg.RNNHidden = true, hidden
	return cfg
}

// TestAgentActZeroAllocs pins the steady state of inference: after one
// warm-up call (the activation layers size their workspaces on first use),
// Act allocates nothing, with telemetry collecting.
func TestAgentActZeroAllocs(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "rnn": withRNN(DefaultConfig(), 16)} {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a = a.Clone() // campaigns drive clones
			img := tinyImage(1, cfg.ImageW, cfg.ImageH)
			act := func() {
				if _, err := a.Act(img, 5, world.TurnLeft); err != nil {
					t.Fatal(err)
				}
			}
			act()
			if allocs := testing.AllocsPerRun(50, act); allocs != 0 {
				t.Errorf("Act allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// TestActReadsWeightsLive is the stale-weights guard: nothing a forward
// pass leaves behind may stand in for the weights, because fault injectors
// rewrite them in place through VisitParams between calls. Every parameter
// tensor the driving head's forward pass reads is corrupted in turn, after
// a warm-up call, and must change the next control relative to an
// uncorrupted twin.
func TestActReadsWeightsLive(t *testing.T) {
	base, err := New(withRNN(tinyConfig(), 6))
	if err != nil {
		t.Fatal(err)
	}
	type tensorID struct {
		component, name string
		layer           int
	}
	var ids []tensorID
	base.VisitParams(func(c string, layer int, name string, _ *tensor.Tensor) {
		if c == "trunk" || c == "meas" || c == "head-left" {
			ids = append(ids, tensorID{c, name, layer})
		}
	})
	if len(ids) != 6+3+2+4 { // two convs and a dense, the rnn triple, meas, the head's two denses
		t.Fatalf("found %d parameter tensors on the left head's path: %v", len(ids), ids)
	}
	img := tinyImage(9, 16, 12)
	for _, id := range ids {
		twin, a := base.Clone(), base.Clone()
		for _, ag := range []*Agent{twin, a} {
			if _, err := ag.Act(img, 5, world.TurnLeft); err != nil {
				t.Fatal(err)
			}
		}
		a.VisitParams(func(c string, layer int, name string, v *tensor.Tensor) {
			if (tensorID{c, name, layer}) == id {
				for i, w := range v.Data() {
					v.Data()[i] = 0.5 - w
				}
			}
		})
		want, err := twin.Act(img, 5, world.TurnLeft)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Act(img, 5, world.TurnLeft)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("control %+v unchanged after corrupting %s layer %d %s in place", got, id.component, id.layer, id.name)
		}
	}
}

// TestClonesDriveConcurrently runs two clones on different frames at once
// and checks each against the same frames driven serially: clones share no
// workspace. Run under -race.
func TestClonesDriveConcurrently(t *testing.T) {
	for name, cfg := range map[string]Config{"default": tinyConfig(), "rnn": withRNN(tinyConfig(), 6)} {
		t.Run(name, func(t *testing.T) {
			base, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const clones, frames = 2, 20
			drive := func(a *Agent, clone int) [frames]physics.Control {
				var out [frames]physics.Control
				a.Reset()
				for f := range out {
					ctl, err := a.Act(tinyImage(uint64(100*clone+f), 16, 12), float64(f%9), commands[(clone+f)%len(commands)])
					if err != nil {
						t.Error(err)
					}
					out[f] = ctl
				}
				return out
			}
			var want, got [clones][frames]physics.Control
			for c := range want {
				want[c] = drive(base.Clone(), c)
			}
			var wg sync.WaitGroup
			for c := range got {
				a := base.Clone()
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[c] = drive(a, c)
				}()
			}
			wg.Wait()
			if got != want {
				t.Error("clones driven concurrently differ from the same clones driven serially")
			}
		})
	}
}

// TestActRejectsWrongImageSize: a frame that is not the configured size is
// an error, never a panic or a read past the frame.
func TestActRejectsWrongImageSize(t *testing.T) {
	a, err := New(tinyConfig()) // 16x12
	if err != nil {
		t.Fatal(err)
	}
	bad := []*render.Image{
		render.NewImage(12, 16), // same area, transposed
		render.NewImage(8, 8),
		render.NewImage(64, 48),
		{W: 16, H: 12, Pix: make([]float64, 10)}, // header lies about Pix
		{W: 16, H: 12},
	}
	for _, img := range bad {
		if _, err := a.Act(img, 5, world.TurnFollow); err == nil {
			t.Errorf("Act accepted a %dx%d image of %d values", img.W, img.H, len(img.Pix))
		}
	}
	// A rejected frame leaves the agent usable.
	if ctl, err := a.Act(tinyImage(1, 16, 12), 5, world.TurnFollow); err != nil || math.IsNaN(ctl.Steer) {
		t.Errorf("Act after rejected frames: %+v, %v", ctl, err)
	}
	// Training samples are checked the same way.
	s := Sample{Image: tensor.New(3, 16, 12), Command: world.TurnFollow}
	if _, err := a.Train([]Sample{s}, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0.1}); err == nil {
		t.Error("Train accepted a transposed sample image")
	}
}
