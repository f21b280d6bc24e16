package nn

import (
	"bytes"
	"math"
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
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*8*8, 10).InitHe(r),
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
		NewDense(2, 2), NewReLU(), NewTanh(), NewSigmoid(),
		NewFlatten(), NewMaxPool2D(2), NewConv2D(1, 4, 4, 1, 3, 1, 1),
		NewRNNCell(2, 2),
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
	if net.Params()[0].Value.MaxAbs() > 100 {
		t.Error("Clone shares weight storage with original")
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

func TestDropoutTrainVsEval(t *testing.T) {
	r := rng.New(5)
	drop := NewDropout(0.5, r)
	net := NewNetwork(drop)
	x := tensor.New(1000)
	x.Fill(1)

	net.SetTraining(false)
	y, err := net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data() {
		if v != 1 {
			t.Fatal("inference dropout altered values")
		}
	}

	net.SetTraining(true)
	y, err = net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	var sum float64
	for _, v := range y.Data() {
		if v == 0 {
			zeros++
		}
		sum += v
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropout zeroed %d/1000, want ~500", zeros)
	}
	// Inverted dropout keeps the expectation.
	if mean := sum / 1000; math.Abs(mean-1) > 0.15 {
		t.Errorf("dropout mean %v, want ~1", mean)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	r := rng.New(6)
	drop := NewDropout(0.5, r)
	drop.active = true
	x := tensor.New(100)
	x.Fill(1)
	y, err := drop.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.New(100)
	g.Fill(1)
	back, err := drop.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (back.Data()[i] == 0) {
			t.Fatal("backward mask mismatch with forward mask")
		}
	}
}

func TestSGDReducesLoss(t *testing.T) {
	r := rng.New(7)
	net := NewNetwork(
		NewDense(2, 8).InitHe(r),
		NewTanh(),
		NewDense(8, 1).InitXavier(r),
	)
	assertTrainingConverges(t, net, NewSGD(0.01, 0.9), r)
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
func assertTrainingConverges(t *testing.T, net *Network, opt Optimizer, r *rng.Stream) {
	t.Helper()
	loss := MSE{}
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
			l, err := loss.Loss(pred, y)
			if err != nil {
				t.Fatal(err)
			}
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
		g, err := loss.Grad(pred, y)
		if err != nil {
			t.Fatal(err)
		}
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

func TestSGDClipNorm(t *testing.T) {
	p := newParam("w", 2)
	p.Grad.Data()[0] = 100
	p.Grad.Data()[1] = -100
	sgd := NewSGD(1, 0)
	sgd.ClipNorm = 1
	sgd.Step([]*Param{p})
	// With clipping to max-abs 1, update magnitude is exactly lr*1.
	if math.Abs(p.Value.Data()[0]+1) > 1e-12 || math.Abs(p.Value.Data()[1]-1) > 1e-12 {
		t.Errorf("clipped step = %v", p.Value.Data())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(9)
	conv := NewConv2D(1, 8, 8, 2, 3, 1, 1).InitHe(r)
	net := NewNetwork(
		conv,
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*4*4, 6).InitXavier(r),
		NewTanh(),
		NewRNNCell(6, 4).InitXavier(r),
		NewDropout(0.3, r),
		NewDense(4, 2).InitXavier(r),
		NewSigmoid(),
	)
	x := randImage(r, 1, 8, 8)
	want, err := net.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resetRNNStates(loaded)
	got, err := loaded.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data() {
		if math.Abs(want.Data()[i]-got.Data()[i]) > 1e-12 {
			t.Fatalf("loaded output differs at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage Load did not error")
	}
}

func TestBuildLayerRejectsBadSpecs(t *testing.T) {
	bad := []LayerSpec{
		{Kind: "nope"},
		{Kind: "dense", Ints: map[string]int{"in": 0, "out": 2}},
		{Kind: "dense", Ints: map[string]int{"in": 2, "out": 2}}, // missing tensors
		{Kind: "maxpool2d", Ints: map[string]int{"size": 0}},
		{Kind: "conv2d", Ints: map[string]int{"inC": 1}},
		{Kind: "rnncell", Ints: map[string]int{"in": 2, "hidden": 0}},
	}
	for _, s := range bad {
		if _, err := buildLayer(s); err == nil {
			t.Errorf("spec %+v did not error", s.Kind)
		}
	}
}

func TestRNNStateEvolvesAndResets(t *testing.T) {
	r := rng.New(10)
	cell := NewRNNCell(2, 3).InitXavier(r)
	x := tensor.MustFromSlice([]float64{0.5, -0.25}, 2)

	y1, err := cell.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	y1 = y1.Clone() // the cell's output buffer is overwritten by the next Forward
	y2, err := cell.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			same = false
		}
	}
	if same {
		t.Error("RNN output identical across steps; state not evolving")
	}
	if &y2.Data()[0] == &cell.State().Data()[0] {
		t.Error("RNN output aliases the hidden state")
	}

	cell.ResetState()
	y3, err := cell.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if y1.Data()[i] != y3.Data()[i] {
			t.Fatal("RNN reset did not restore initial behaviour")
		}
	}
}

func TestIsFinite(t *testing.T) {
	r := rng.New(11)
	net := NewNetwork(NewDense(2, 2).InitHe(r))
	if !net.IsFinite() {
		t.Error("fresh network reported non-finite")
	}
	net.Params()[0].Value.Data()[0] = math.Inf(1)
	if net.IsFinite() {
		t.Error("Inf weight not detected")
	}
}

func TestMSELossKnown(t *testing.T) {
	pred := tensor.MustFromSlice([]float64{1, 2}, 2)
	target := tensor.MustFromSlice([]float64{0, 4}, 2)
	l, err := MSE{}.Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-2.5) > 1e-12 { // (1+4)/2
		t.Errorf("MSE = %v, want 2.5", l)
	}
	g, err := MSE{}.Grad(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0) != 1 || g.At(1) != -2 {
		t.Errorf("MSE grad = %v", g.Data())
	}
}

func TestHuberMatchesMSEInCore(t *testing.T) {
	pred := tensor.MustFromSlice([]float64{0.5}, 1)
	target := tensor.MustFromSlice([]float64{0}, 1)
	h, err := Huber{Delta: 1}.Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.125) > 1e-12 { // r^2/2
		t.Errorf("Huber core = %v, want 0.125", h)
	}
}

func TestHuberLinearTail(t *testing.T) {
	pred := tensor.MustFromSlice([]float64{10}, 1)
	target := tensor.MustFromSlice([]float64{0}, 1)
	h, err := Huber{Delta: 1}.Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-9.5) > 1e-12 { // d*(r - d/2) = 1*(10-0.5)
		t.Errorf("Huber tail = %v, want 9.5", h)
	}
	g, err := Huber{Delta: 1}.Grad(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0) != 1 { // clipped to delta
		t.Errorf("Huber tail grad = %v, want 1", g.At(0))
	}
}

func TestLossShapeMismatch(t *testing.T) {
	if _, err := (MSE{}).Loss(tensor.New(2), tensor.New(3)); err == nil {
		t.Error("MSE shape mismatch did not error")
	}
	if _, err := (Huber{}).Grad(tensor.New(2), tensor.New(3)); err == nil {
		t.Error("Huber shape mismatch did not error")
	}
}
