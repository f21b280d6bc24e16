package nn

import (
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

// everyLayer is a network with one of each layer kind, so the workspace
// contract is checked for all of them.
func everyLayer(r *rng.Stream) (*Network, *tensor.Tensor) {
	conv := NewConv2D(2, 8, 8, 5, 3, 1, 1).InitHe(r)
	net := NewNetwork(
		conv,
		NewReLU(),
		NewFlatten(),
		NewDense(5*8*8, 6).InitXavier(r),
		NewTanh(),
		NewDense(6, 3).InitXavier(r),
	)
	return net, randImage(r, 2, 8, 8)
}

func TestForwardBackwardZeroAllocs(t *testing.T) {
	net, x := everyLayer(rng.New(21))
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
	cl := net.Clone()
	in, clIn := x, x
	for i, l := range net.layers {
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
		for j, v := range kept.Data() {
			if y2.Data()[j] != v {
				t.Fatalf("layer %d (%T): same input, different output", i, l)
			}
		}
		kept = y2.Clone()
		clY, err := cl.layers[i].Forward(clIn)
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
