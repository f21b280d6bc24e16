package agent

import (
	"bytes"
	"math"
	"testing"

	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// tinyConfig keeps unit tests fast: a 16x12 camera and a small net.
func tinyConfig() Config {
	return Config{
		ImageW: 16, ImageH: 12,
		Conv1: 4, Conv2: 6,
		FeatDim: 16, MeasDim: 4, HeadHidden: 8,
		Seed: 3,
	}
}

func tinyImage(seed uint64, w, h int) *render.Image {
	r := rng.New(seed)
	im := render.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = r.Float64()
	}
	return im
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{ImageW: 4, ImageH: 48, Conv1: 8, Conv2: 8, FeatDim: 8, MeasDim: 4, HeadHidden: 8},
		{ImageW: 64, ImageH: 48, Conv1: 0, Conv2: 8, FeatDim: 8, MeasDim: 4, HeadHidden: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestActProducesSaneControls(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := a.Act(tinyImage(1, 16, 12), 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Steer < -1 || ctl.Steer > 1 || ctl.Throttle < 0 || ctl.Throttle > 1 || ctl.Brake < 0 || ctl.Brake > 1 {
		t.Errorf("control out of range: %+v", ctl)
	}
}

func TestActDeterministic(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(2, 16, 12)
	c1, err := a.Act(img, 4, world.TurnLeft)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.Act(img, 4, world.TurnLeft)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("Act not deterministic")
	}
}

func TestHeadsAreConditioned(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(3, 16, 12)
	cl, err := a.Act(img, 5, world.TurnLeft)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := a.Act(img, 5, world.TurnRight)
	if err != nil {
		t.Fatal(err)
	}
	if cl == cr {
		t.Error("left and right heads produced identical controls on random weights")
	}
}

func TestUnknownCommandFallsBackToFollow(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(4, 16, 12)
	cFollow, err := a.Act(img, 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	cBad, err := a.Act(img, 5, world.TurnKind(99))
	if err != nil {
		t.Fatal(err)
	}
	if cFollow != cBad {
		t.Error("unknown command did not fall back to follow head")
	}
}

func TestCorruptWeightsDegradeGracefully(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Poison every trunk weight with Inf — Act must not panic and must
	// return sanitized (finite) controls.
	a.VisitParams(func(component string, layer int, name string, v *tensor.Tensor) {
		if component == "trunk" {
			v.Fill(math.Inf(1))
		}
	})
	ctl, err := a.Act(tinyImage(5, 16, 12), 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ctl.Steer) || math.IsInf(ctl.Steer, 0) {
		t.Errorf("corrupted agent produced non-finite control: %+v", ctl)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(6, 16, 12)
	before, err := a.Act(img, 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	cl := a.Clone()
	cl.VisitParams(func(_ string, _ int, _ string, v *tensor.Tensor) { v.Fill(0) })
	after, err := a.Act(img, 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("mutating clone changed the original")
	}
}

func TestVisitParamsCoversAllComponents(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	total := 0
	a.VisitParams(func(component string, _ int, _ string, v *tensor.Tensor) {
		seen[component]++
		total += v.Len()
	})
	for _, want := range []string{"trunk", "meas", "head-follow", "head-left", "head-right", "head-straight"} {
		if seen[want] == 0 {
			t.Errorf("component %q not visited", want)
		}
	}
	if total != a.ParamCount() {
		t.Errorf("visited %d params, ParamCount says %d", total, a.ParamCount())
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic imitation task: steer toward the bright side of the image.
	r := rng.New(10)
	var data []Sample
	for i := 0; i < 200; i++ {
		im := tensor.New(3, cfg.ImageH, cfg.ImageW)
		bright := r.Bool(0.5)
		for c := 0; c < 3; c++ {
			for y := 0; y < cfg.ImageH; y++ {
				for x := 0; x < cfg.ImageW; x++ {
					v := 0.2
					if (bright && x >= cfg.ImageW/2) || (!bright && x < cfg.ImageW/2) {
						v = 0.9
					}
					im.Set(v+r.Range(-0.05, 0.05), c, y, x)
				}
			}
		}
		steer := 0.5
		if bright {
			steer = -0.5
		}
		data = append(data, Sample{
			Image: im, Speed: 5, Command: world.TurnFollow,
			Steer: steer, TargetSpeed: 6,
		})
	}
	tc := TrainConfig{Epochs: 6, BatchSize: 8, LR: 2e-3, SteerWeight: 1, SpeedWeight: 0.4, Seed: 1}
	before, err := a.EvalLoss(data, tc)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := a.Train(data, tc)
	if err != nil {
		t.Fatal(err)
	}
	after, err := a.EvalLoss(data, tc)
	if err != nil {
		t.Fatal(err)
	}
	if after > before*0.3 {
		t.Errorf("training ineffective: loss %v -> %v (history %v)", before, after, hist)
	}
}

func TestTrainValidation(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(nil, DefaultTrainConfig()); err == nil {
		t.Error("empty dataset did not error")
	}
	s := Sample{Image: tensor.New(3, 12, 16), Command: world.TurnFollow}
	if _, err := a.Train([]Sample{s}, TrainConfig{Epochs: 0, BatchSize: 4, LR: 0.1}); err == nil {
		t.Error("zero epochs did not error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Move every weight off what New draws from the file's seed: only a
	// load that fills every component gives them back.
	a.VisitParams(func(_ string, _ int, _ string, v *tensor.Tensor) {
		for i := range v.Data() {
			v.Data()[i] += 0.01
		}
	})
	img := tinyImage(7, 16, 12)
	want, err := a.Act(img, 5, world.TurnRight)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Act(img, 5, world.TurnRight)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("loaded agent acts differently: %+v vs %+v", got, want)
	}
	if got, want := paramsSHA256(loaded), paramsSHA256(a); got != want {
		t.Errorf("loaded weights hash %s, saved %s", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage load did not error")
	}
}

// TestActIsStateless: the agent carries nothing from one frame to the
// next. The same frame twice gives bit-identical controls, and a clone that
// has driven 20 frames acts on the next frame exactly like a fresh clone.
func TestActIsStateless(t *testing.T) {
	base, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := base.Clone()
	img := tinyImage(8, 16, 12)
	c1, err := a.Act(img, 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.Act(img, 5, world.TurnFollow)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("same frame twice: %+v then %+v", c1, c2)
	}
	for f := 0; f < 20; f++ {
		if _, err := a.Act(tinyImage(uint64(100+f), 16, 12), float64(f%9), commands[f%len(commands)]); err != nil {
			t.Fatal(err)
		}
	}
	next := tinyImage(99, 16, 12)
	want, err := base.Clone().Act(next, 3, world.TurnRight)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Act(next, 3, world.TurnRight)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after 20 frames: %+v, a fresh clone: %+v", got, want)
	}
}

func TestExpertControlMapping(t *testing.T) {
	steer, tgt := ExpertControl(physicsControl(0.25), 5)
	if steer != 0.25 || tgt != 0.5 {
		t.Errorf("ExpertControl = %v, %v", steer, tgt)
	}
}
