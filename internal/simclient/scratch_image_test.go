package simclient

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	_ "github.com/avfi/avfi/internal/fault/actuatorfault"
	_ "github.com/avfi/avfi/internal/fault/commfault"
	_ "github.com/avfi/avfi/internal/fault/hallucinate"
	_ "github.com/avfi/avfi/internal/fault/hwfault"
	_ "github.com/avfi/avfi/internal/fault/imagefault"
	_ "github.com/avfi/avfi/internal/fault/locfault"
	"github.com/avfi/avfi/internal/fault/mlfault"
	_ "github.com/avfi/avfi/internal/fault/sensorfault"
	_ "github.com/avfi/avfi/internal/fault/timingfault"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// scribbler is a stateful, contract-abiding input injector: it checks that
// the image it is handed is exactly the frame's decoded payload, remembers a
// copy, and then overwrites every pixel.
type scribbler struct {
	fault.Noop
	t    *testing.T
	want []*render.Image
	seen []*render.Image
}

func (s *scribbler) InjectImage(img *render.Image, frame int, _ *rng.Stream) {
	want := s.want[frame]
	if img.W != want.W || img.H != want.H || len(img.Pix) != len(want.Pix) {
		s.t.Fatalf("frame %d: injector saw a %dx%d image of %d values", frame, img.W, img.H, len(img.Pix))
	}
	for i, v := range want.Pix {
		if img.Pix[i] != v {
			s.t.Fatalf("frame %d: pixel %d is %v, want the frame's own %v", frame, i, img.Pix[i], v)
		}
	}
	s.seen = append(s.seen, img.Clone())
	for i := range img.Pix {
		img.Pix[i] = 1
	}
}

func TestFaultedDriverScratchImageIsRefilledEveryFrame(t *testing.T) {
	const frames = 3
	s := &scribbler{t: t}
	var inputs [frames]*render.Image
	d := NewFaultedDriver(testAgent(t).Clone(), s, nil, nil, rng.New(1))
	d.Reset()
	for i := 0; i < frames; i++ {
		f := testFrame(t, uint32(i))
		img, err := render.ImageFromBytes(int(f.ImageW), int(f.ImageH), f.Pixels)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = img
		s.want = inputs[:i+1]
		if _, err := d.Drive(f); err != nil {
			t.Fatal(err)
		}
	}
	// The copies the injector kept are still the frames it saw: later
	// frames went through the same buffer without touching them.
	for i, img := range s.seen {
		for j, v := range inputs[i].Pix {
			if img.Pix[j] != v {
				t.Fatalf("copy of frame %d changed at pixel %d after later frames", i, j)
			}
		}
	}
}

// TestScratchImageMatchesFreshImageForEveryInjector drives every registered
// input injector two ways over the same frames: one driver reusing its
// scratch image, and a fresh driver (so a freshly allocated image) per
// frame around the same injector, agent and random stream. An injector that
// kept the image it was handed, rather than a copy, would see its kept
// pixels change under it on the first side only.
func TestScratchImageMatchesFreshImageForEveryInjector(t *testing.T) {
	const frames = 6
	base := testAgent(t)
	tested := 0
	for _, name := range fault.Names() {
		spec, err := fault.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := spec.New().(fault.InputInjector); !ok {
			continue
		}
		tested++
		t.Run(name, func(t *testing.T) {
			reused := NewFaultedDriver(base.Clone(), spec.New().(fault.InputInjector), nil, nil, rng.New(9))
			reused.Reset()
			fresh := NewFaultedDriver(base.Clone(), spec.New().(fault.InputInjector), nil, nil, rng.New(9))
			fresh.Reset()
			for i := 0; i < frames; i++ {
				f := frameWithLidar(t, 20)
				f.Frame = uint32(i)
				f.Pixels = testFrame(t, uint32(i)).Pixels
				got, err := reused.Drive(f)
				if err != nil {
					t.Fatal(err)
				}
				perFrame := NewFaultedDriver(fresh.Agent, fresh.Input, nil, nil, fresh.Rand)
				want, err := perFrame.Drive(f)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("frame %d: control %+v with the reused image, %+v with a fresh one", i, got, want)
				}
			}
		})
	}
	if tested < 10 {
		t.Fatalf("only %d registered input injectors found; are the fault packages linked in?", tested)
	}
}

// TestModelFaultAfterWarmForwardChangesControl guards against a forward
// pass that caches anything derived from the weights: a model fault applied
// after the network has already run must still change what it computes.
func TestModelFaultAfterWarmForwardChangesControl(t *testing.T) {
	d := NewFaultedDriver(testAgent(t).Clone(), nil, nil, nil, rng.New(3))
	d.Reset()
	f := testFrame(t, 0)
	before, err := d.Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	if before != again {
		t.Fatalf("same frame, same weights: %+v then %+v", before, again)
	}
	d.ApplyModelFault(mlfault.NewWeightNoise(), rng.New(4))
	after, err := d.Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Errorf("control %+v unchanged by a model fault applied after a warm forward pass", after)
	}
}
