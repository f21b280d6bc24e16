package nn

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

// numericalGrad estimates dLoss/dTheta for every scalar in the given
// parameter by central finite differences, where loss is computed by eval.
func numericalGrad(t *testing.T, value *tensor.Tensor, eval func() float64) []float64 {
	t.Helper()
	const h = 1e-5
	grads := make([]float64, value.Len())
	for i := range value.Data() {
		orig := value.Data()[i]
		value.Data()[i] = orig + h
		up := eval()
		value.Data()[i] = orig - h
		down := eval()
		value.Data()[i] = orig
		grads[i] = (up - down) / (2 * h)
	}
	return grads
}

// checkNetworkGradients runs forward/backward once and compares analytic
// parameter gradients against finite differences.
func checkNetworkGradients(t *testing.T, net *Network, x, target *tensor.Tensor, tol float64) {
	t.Helper()
	eval := func() float64 {
		pred, err := net.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		l, _ := sqErr(pred, target)
		return l
	}

	// Analytic gradients.
	net.ZeroGrad()
	pred, err := net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	_, grad := sqErr(pred, target)
	if _, err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}

	for _, p := range net.Params() {
		numeric := numericalGrad(t, p.Value, eval)
		for i, ng := range numeric {
			ag := p.Grad.Data()[i]
			denom := math.Max(1, math.Max(math.Abs(ng), math.Abs(ag)))
			if math.Abs(ng-ag)/denom > tol {
				t.Fatalf("param %q[%d]: analytic %v vs numeric %v", p.Name, i, ag, ng)
			}
		}
	}
}

// sqErr returns the mean squared error of pred against target, and its
// gradient with respect to pred.
func sqErr(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape()...)
	scale := 2 / float64(pred.Len())
	var sum float64
	for i, p := range pred.Data() {
		d := p - target.Data()[i]
		sum += d * d
		grad.Data()[i] = scale * d
	}
	return sum / float64(pred.Len()), grad
}

func TestDenseGradient(t *testing.T) {
	r := rng.New(1)
	net := NewNetwork(NewDense(4, 3).InitXavier(r))
	x := randVec(r, 4)
	target := randVec(r, 3)
	checkNetworkGradients(t, net, x, target, 1e-5)
}

func TestDenseReLUStackGradient(t *testing.T) {
	r := rng.New(2)
	net := NewNetwork(
		NewDense(5, 8).InitHe(r),
		NewReLU(),
		NewDense(8, 2).InitXavier(r),
	)
	x := randVec(r, 5)
	target := randVec(r, 2)
	checkNetworkGradients(t, net, x, target, 1e-5)
}

func TestTanhGradient(t *testing.T) {
	r := rng.New(3)
	net := NewNetwork(
		NewDense(4, 6).InitXavier(r),
		NewTanh(),
		NewDense(6, 4).InitXavier(r),
		NewTanh(),
	)
	x := randVec(r, 4)
	target := randVec(r, 4)
	checkNetworkGradients(t, net, x, target, 1e-5)
}

func TestConvReLUGradient(t *testing.T) {
	r := rng.New(4)
	conv := NewConv2D(2, 6, 6, 3, 3, 1, 1).InitHe(r)
	net := NewNetwork(
		conv,
		NewReLU(),
		NewFlatten(),
		NewDense(3*6*6, 2).InitXavier(r),
	)
	x := randImage(r, 2, 6, 6)
	target := randVec(r, 2)
	checkNetworkGradients(t, net, x, target, 1e-4)
}

func TestConvStrideGradient(t *testing.T) {
	r := rng.New(5)
	conv := NewConv2D(1, 8, 8, 2, 3, 2, 1)
	conv.InitHe(r)
	oc, oh, ow := conv.OutShape()
	net := NewNetwork(
		conv,
		NewTanh(),
		NewFlatten(),
		NewDense(oc*oh*ow, 3).InitXavier(r),
	)
	x := randImage(r, 1, 8, 8)
	target := randVec(r, 3)
	checkNetworkGradients(t, net, x, target, 1e-4)
}

func TestInputGradientDense(t *testing.T) {
	// Check dLoss/dInput as well — the branched agent needs correct input
	// gradients to backprop from heads into the shared trunk.
	r := rng.New(7)
	net := NewNetwork(NewDense(4, 3).InitXavier(r), NewTanh())
	x := randVec(r, 4)
	target := randVec(r, 3)

	net.ZeroGrad()
	pred, err := net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	_, g := sqErr(pred, target)
	dx, err := net.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	dx = dx.Clone() // a layer workspace; the evaluations below reuse the network

	const h = 1e-5
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up, _ := net.Forward(x.Clone())
		lUp, _ := sqErr(up, target)
		x.Data()[i] = orig - h
		down, _ := net.Forward(x.Clone())
		lDown, _ := sqErr(down, target)
		x.Data()[i] = orig
		numeric := (lUp - lDown) / (2 * h)
		if math.Abs(numeric-dx.Data()[i]) > 1e-5*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, dx.Data()[i], numeric)
		}
	}
}

func randVec(r *rng.Stream, n int) *tensor.Tensor {
	x := tensor.New(n)
	for i := range x.Data() {
		x.Data()[i] = r.Range(-1, 1)
	}
	return x
}

func randImage(r *rng.Stream, c, h, w int) *tensor.Tensor {
	x := tensor.New(c, h, w)
	for i := range x.Data() {
		x.Data()[i] = r.Range(-1, 1)
	}
	return x
}
