package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

func TestNetworkForwardShapes(t *testing.T) {
	r := rng.New(1)
	conv := NewConv2D(3, 16, 16, 4, 3, 1, 1).InitHe(r)
	net := NewNetwork(
		conv,
		NewReLU(),
		NewFlatten(),
		NewDense(4*16*16, 10).InitHe(r),
	)
	x := randImage(r, 3, 16, 16)
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 10 {
		t.Fatalf("output len %d, want 10", y.Len())
	}
}

func TestNetworkForwardShapeError(t *testing.T) {
	net := NewNetwork(NewDense(4, 2))
	if _, err := net.Forward(tensor.New(5)); err == nil {
		t.Error("wrong-size input did not error")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	layers := []Layer{
		NewDense(2, 2), NewReLU(), NewTanh(),
		NewFlatten(), NewConv2D(1, 4, 4, 1, 3, 1, 1),
	}
	for _, l := range layers {
		if _, err := l.Backward(tensor.New(2)); err == nil {
			t.Errorf("%T: Backward before Forward did not error", l)
		}
	}
}

func TestParamCountAndVisit(t *testing.T) {
	r := rng.New(2)
	net := NewNetwork(
		NewDense(3, 4).InitHe(r), // 3*4 + 4 = 16
		NewReLU(),
		NewDense(4, 2).InitHe(r), // 4*2 + 2 = 10
	)
	if got := net.ParamCount(); got != 26 {
		t.Errorf("ParamCount = %d, want 26", got)
	}
	visited := map[string]int{}
	net.VisitParams(func(layer int, name string, v *tensor.Tensor) {
		visited[name] += v.Len()
	})
	if visited["weight"] != 20 || visited["bias"] != 6 {
		t.Errorf("VisitParams totals = %v", visited)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rng.New(3)
	net := NewNetwork(NewDense(2, 2).InitHe(r))
	cl := net.Clone()
	// Corrupt the clone's weights; original must be untouched.
	cl.Params()[0].Value.Fill(999)
	for _, v := range net.Params()[0].Value.Data() {
		if math.Abs(v) > 100 {
			t.Fatal("Clone shares weight storage with original")
		}
	}
	// Both still produce output.
	if _, err := cl.Forward(tensor.New(2)); err != nil {
		t.Fatal(err)
	}
}

func TestCloneProducesSameOutput(t *testing.T) {
	r := rng.New(4)
	net := NewNetwork(
		NewConv2D(1, 8, 8, 2, 3, 1, 1).InitHe(r),
		NewReLU(),
		NewFlatten(),
		NewDense(2*8*8, 3).InitXavier(r),
	)
	x := randImage(r, 1, 8, 8)
	y1, err := net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	y2, err := net.Clone().Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("clone output differs")
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	r := rng.New(8)
	net := NewNetwork(
		NewDense(2, 8).InitHe(r),
		NewTanh(),
		NewDense(8, 1).InitXavier(r),
	)
	assertTrainingConverges(t, net, NewAdam(0.01), r)
}

// assertTrainingConverges fits y = x0*x1 (XOR-ish smooth target) and demands
// a large loss reduction.
func assertTrainingConverges(t *testing.T, net *Network, opt *Adam, r *rng.Stream) {
	t.Helper()
	sample := func() (*tensor.Tensor, *tensor.Tensor) {
		x := tensor.MustFromSlice([]float64{r.Range(-1, 1), r.Range(-1, 1)}, 2)
		y := tensor.MustFromSlice([]float64{x.At(0) * x.At(1)}, 1)
		return x, y
	}
	measure := func() float64 {
		var total float64
		probe := rng.New(999)
		for i := 0; i < 100; i++ {
			x := tensor.MustFromSlice([]float64{probe.Range(-1, 1), probe.Range(-1, 1)}, 2)
			y := tensor.MustFromSlice([]float64{x.At(0) * x.At(1)}, 1)
			pred, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := sqErr(pred, y)
			total += l
		}
		return total / 100
	}

	before := measure()
	for step := 0; step < 2000; step++ {
		net.ZeroGrad()
		x, y := sample()
		pred, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		_, g := sqErr(pred, y)
		if _, err := net.Backward(g); err != nil {
			t.Fatal(err)
		}
		opt.Step(net.Params())
	}
	after := measure()
	if after > before*0.25 {
		t.Errorf("training did not converge: loss %v -> %v", before, after)
	}
}

// TestSaveLoadRoundTrip: weights saved from one network and loaded into a
// differently initialised twin of the same architecture make the twin
// compute bit-identical outputs.
func TestSaveLoadRoundTrip(t *testing.T) {
	net, x := everyLayer(rng.New(9))
	twin, _ := everyLayer(rng.New(10))
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want = want.Clone()
	before, err := twin.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before.Data()[0]) == math.Float64bits(want.Data()[0]) {
		t.Fatal("the twin computes the original's output before any load")
	}

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := twin.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("loaded output differs at %d: %v vs %v", i, got.Data()[i], v)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	net := NewNetwork(NewDense(2, 2))
	if err := net.LoadWeights(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage LoadWeights did not error")
	}
}

// TestLoadWeightsRejectsBadSpecs: saved weights that do not describe the
// network being filled are refused with ErrBadSpec, by the check the row
// names, and leave the network's weights as they were.
func TestLoadWeightsRejectsBadSpecs(t *testing.T) {
	build := func(seed uint64) *Network {
		r := rng.New(seed)
		return NewNetwork(NewDense(3, 4).InitHe(r), NewReLU(), NewDense(4, 2).InitXavier(r))
	}
	for _, tc := range []struct {
		name  string
		edit  func([]LayerSpec) []LayerSpec
		wantS string
	}{
		{"layer count", func(s []LayerSpec) []LayerSpec { return s[:2] }, "2 layers, want 3"},
		{"kind", func(s []LayerSpec) []LayerSpec { s[1].Kind = "tanh"; return s }, `kind "tanh", want "relu"`},
		{"ints", func(s []LayerSpec) []LayerSpec { s[2].Ints["in"] = 5; return s }, "dense config"},
		{"missing tensor", func(s []LayerSpec) []LayerSpec {
			s[0].Tensors["b"] = s[0].Tensors["bias"]
			delete(s[0].Tensors, "bias")
			return s
		}, `missing tensor "bias"`},
		{"extra tensor", func(s []LayerSpec) []LayerSpec {
			s[2].Tensors["gamma"] = tensor.New(2)
			return s
		}, "3 tensors, want 2"},
		{"shape", func(s []LayerSpec) []LayerSpec { s[0].Tensors["weight"] = tensor.New(4, 3); return s }, `tensor "weight" shape [4 3], want [3 4]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var saved bytes.Buffer
			if err := build(1).Save(&saved); err != nil {
				t.Fatal(err)
			}
			var specs []LayerSpec
			if err := gob.NewDecoder(&saved).Decode(&specs); err != nil {
				t.Fatal(err)
			}
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(tc.edit(specs)); err != nil {
				t.Fatal(err)
			}
			net := build(2)
			var want []*tensor.Tensor
			for _, p := range net.Params() {
				want = append(want, p.Value.Clone())
			}
			err := net.LoadWeights(&bad)
			if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), tc.wantS) {
				t.Fatalf("err = %v, want ErrBadSpec containing %q", err, tc.wantS)
			}
			for i, p := range net.Params() {
				for j, v := range want[i].Data() {
					if math.Float64bits(p.Value.Data()[j]) != math.Float64bits(v) {
						t.Fatalf("refused load wrote %s[%d]", p.Name, j)
					}
				}
			}
		})
	}
}
