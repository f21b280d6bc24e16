package nn

import (
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

// everyLayer is a network with one of each layer kind, so the workspace
// contract is checked for all of them, not only the ones the agent uses.
func everyLayer(r *rng.Stream) (*Network, *tensor.Tensor) {
	conv := NewConv2D(2, 8, 8, 5, 3, 1, 1).InitHe(r)
	net := NewNetwork(
		conv,
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(5*4*4, 6).InitXavier(r),
		NewTanh(),
		NewRNNCell(6, 4).InitXavier(r),
		NewDropout(0.3, r.Split("dropout")),
		NewDense(4, 3).InitXavier(r),
		NewSigmoid(),
	)
	return net, randImage(r, 2, 8, 8)
}

func TestForwardBackwardZeroAllocs(t *testing.T) {
	net, x := everyLayer(rng.New(21))
	net.SetTraining(true)
	grad := randVec(rng.New(22), 3)
	step := func() {
		if _, err := net.Forward(x); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
	}
	step() // sizes the lazily created workspaces
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("steady-state forward+backward allocates %v times, want 0", allocs)
	}
}

// TestWorkspacesAreOwnedAndNeverShared checks the aliasing contract layer by
// layer: a layer returns the same buffer from every Forward, that buffer is
// not its input, and a clone returns a different one, so running a clone
// cannot disturb what the original last returned.
func TestWorkspacesAreOwnedAndNeverShared(t *testing.T) {
	net, x := everyLayer(rng.New(23))
	net.SetTraining(true)
	cl := net.Clone()
	in, clIn := x, x
	for i, l := range net.Layers() {
		if d, ok := l.(*Dropout); ok {
			d.active = true
			cl.Layers()[i].(*Dropout).active = true
		}
		y1, err := l.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		kept := y1.Clone()
		y2, err := l.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if y1 != y2 {
			t.Errorf("layer %d (%T): second Forward returned another buffer", i, l)
		}
		if y1 == in {
			t.Errorf("layer %d (%T): Forward returned its input", i, l)
		}
		if _, stateful := l.(*RNNCell); !stateful {
			if _, random := l.(*Dropout); !random {
				for j, v := range kept.Data() {
					if y2.Data()[j] != v {
						t.Fatalf("layer %d (%T): same input, different output", i, l)
					}
				}
			}
		}
		kept = y2.Clone()
		clY, err := cl.Layers()[i].Forward(clIn)
		if err != nil {
			t.Fatal(err)
		}
		if clY == y2 || (clY.Len() > 0 && &clY.Data()[0] == &y2.Data()[0]) {
			t.Errorf("layer %d (%T): clone shares the original's output buffer", i, l)
		}
		for j, v := range kept.Data() {
			if y2.Data()[j] != v {
				t.Fatalf("layer %d (%T): running the clone changed the original's output", i, l)
			}
		}
		in, clIn = y2, clY
	}
}

// TestDropoutClonesHaveOwnStreams: a clone's mask stream is its own, so two
// clones in training mode run side by side without a race (run under
// -race), and cloning leaves the original's stream where it was.
func TestDropoutClonesHaveOwnStreams(t *testing.T) {
	newNet := func() *Network {
		net := NewNetwork(NewDropout(0.5, rng.New(31)))
		net.SetTraining(true)
		return net
	}
	x := tensor.New(256)
	x.Fill(1)

	untouched, err := newNet().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	net := newNet()
	a, b := net.Clone(), net.Clone()
	var wg sync.WaitGroup
	firsts, outs := make([]*tensor.Tensor, 2), make([]*tensor.Tensor, 2)
	for i, cl := range []*Network{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 50; step++ {
				y, err := cl.Forward(x)
				if err != nil {
					t.Error(err)
					return
				}
				if step == 0 {
					firsts[i] = y.Clone()
				}
				outs[i] = y
			}
		}()
	}
	wg.Wait()
	for j, v := range outs[0].Data() {
		if outs[1].Data()[j] != v {
			t.Fatal("two clones of one network drew different masks: the derivation is not deterministic")
		}
	}
	after, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for j, v := range untouched.Data() {
		if after.Data()[j] != v {
			t.Fatal("cloning advanced the original's mask stream")
		}
		differs = differs || firsts[0].Data()[j] != v
	}
	if !differs {
		t.Error("a clone draws the original's masks: its stream is a copy, not a derived one")
	}
}
