package nn

import (
	"fmt"
	"math"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

// Compile-time interface checks.
var (
	_ Layer = (*Dense)(nil)
	_ Layer = (*MaxPool2D)(nil)
	_ Layer = (*Flatten)(nil)
	_ Layer = (*ReLU)(nil)
	_ Layer = (*Tanh)(nil)
	_ Layer = (*Sigmoid)(nil)
	_ Layer = (*Dropout)(nil)
)

// sized returns buf if it already has like's shape, else a new zero tensor
// of that shape: how the layers without a fixed geometry keep a workspace.
func sized(buf, like *tensor.Tensor) *tensor.Tensor {
	if buf != nil && buf.SameShape(like) {
		return buf
	}
	return tensor.New(like.Shape()...)
}

// vecMat sets y = x·W for a row vector x and W shaped (len(x), len(y)):
// every y[j] is summed from +0 over ascending k as y[j] += x[k]*W[k][j], and
// a zero x[k] skips its row, so it never meets a weight corrupted to Inf or
// NaN. The row loop is unrolled by four (each y[j] is still its own sum): it
// is the trunk projection, a fifth of the agent's forward pass.
func vecMat(y, x, w []float64) {
	for j := range y {
		y[j] = 0
	}
	for k, a := range x {
		if a == 0 {
			continue
		}
		row := w[k*len(y):][:len(y)]
		j := 0
		for ; j+4 <= len(row); j += 4 {
			r, o := row[j:j+4:j+4], y[j:j+4:j+4]
			o[0] += a * r[0]
			o[1] += a * r[1]
			o[2] += a * r[2]
			o[3] += a * r[3]
		}
		for ; j < len(row); j++ {
			y[j] += a * row[j]
		}
	}
}

// addOuter accumulates the outer product of x and g into gw, shaped
// (len(x), len(g)): the weight gradient of vecMat. Zero x[k] rows are skipped.
func addOuter(gw, x, g []float64) {
	for k, a := range x {
		if a == 0 {
			continue
		}
		row := gw[k*len(g):][:len(g)]
		for j, gv := range g {
			row[j] += a * gv
		}
	}
}

// matVec sets dx = W·g for W shaped (len(dx), len(g)): the input gradient of
// vecMat, each element summed from +0 over ascending j.
func matVec(dx, w, g []float64) {
	for k := range dx {
		var sum float64
		for j, wv := range w[k*len(g):][:len(g)] {
			sum += g[j] * wv
		}
		dx[k] = sum
	}
}

// addTo accumulates src into dst elementwise.
func addTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Dense is a fully connected layer: y = xW + b with W shaped (in, out).
type Dense struct {
	in, out int
	w, b    *Param
	y       *tensor.Tensor // output workspace
	lastX   *tensor.Tensor // last input, by reference
	dx      *tensor.Tensor // input gradient, created by the first Backward
}

// NewDense constructs a Dense layer with zero weights; call InitHe or
// InitXavier (or load weights) before use.
func NewDense(in, out int) *Dense {
	return &Dense{
		in:  in,
		out: out,
		w:   newParam("weight", in, out),
		b:   newParam("bias", out),
		y:   tensor.New(out),
	}
}

// InitHe applies He-normal initialization (for ReLU activations).
func (d *Dense) InitHe(r *rng.Stream) *Dense {
	std := math.Sqrt(2 / float64(d.in))
	for i := range d.w.Value.Data() {
		d.w.Value.Data()[i] = r.NormScaled(0, std)
	}
	return d
}

// InitXavier applies Xavier-uniform initialization (for tanh/sigmoid).
func (d *Dense) InitXavier(r *rng.Stream) *Dense {
	lim := math.Sqrt(6 / float64(d.in+d.out))
	for i := range d.w.Value.Data() {
		d.w.Value.Data()[i] = r.Range(-lim, lim)
	}
	return d
}

// Forward implements Layer. Input must hold in values, in any shape.
func (d *Dense) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Len() != d.in {
		return nil, fmt.Errorf("dense: input %v, want %d values", x.Shape(), d.in)
	}
	d.lastX = x
	vecMat(d.y.Data(), x.Data(), d.w.Value.Data())
	addTo(d.y.Data(), d.b.Value.Data())
	return d.y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if grad.Len() != d.out {
		return nil, fmt.Errorf("dense: grad %v, want %d values", grad.Shape(), d.out)
	}
	if d.lastX == nil {
		return nil, fmt.Errorf("dense: Backward before Forward")
	}
	if d.dx == nil {
		d.dx = tensor.New(d.in)
	}
	addOuter(d.w.Grad.Data(), d.lastX.Data(), grad.Data())
	addTo(d.b.Grad.Data(), grad.Data())
	matVec(d.dx.Data(), d.w.Value.Data(), grad.Data())
	return d.dx, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Spec implements Layer.
func (d *Dense) Spec() LayerSpec {
	return LayerSpec{
		Kind:    "dense",
		Ints:    map[string]int{"in": d.in, "out": d.out},
		Tensors: map[string]*tensor.Tensor{"weight": d.w.Value.Clone(), "bias": d.b.Value.Clone()},
	}
}

func (d *Dense) clone() Layer {
	return &Dense{in: d.in, out: d.out, w: cloneParam(d.w), b: cloneParam(d.b), y: tensor.New(d.out)}
}

// MaxPool2D downsamples (C, H, W) by a square window.
type MaxPool2D struct {
	size   int
	y      *tensor.Tensor
	argmax []int
	lastX  *tensor.Tensor
	dx     *tensor.Tensor
}

// NewMaxPool2D constructs a pooling layer with the given window size.
func NewMaxPool2D(size int) *MaxPool2D { return &MaxPool2D{size: size} }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 {
		return nil, fmt.Errorf("maxpool: input %v, want (C,H,W)", x.Shape())
	}
	if c, oh, ow := x.Dim(0), x.Dim(1)/m.size, x.Dim(2)/m.size; m.y == nil || m.y.Dim(0) != c || m.y.Dim(1) != oh || m.y.Dim(2) != ow {
		m.y = tensor.New(c, oh, ow)
		m.argmax = make([]int, m.y.Len())
	}
	if err := tensor.MaxPool2DInto(m.y, m.argmax, x, m.size); err != nil {
		return nil, err
	}
	m.lastX = x
	return m.y, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.lastX == nil {
		return nil, fmt.Errorf("maxpool: Backward before Forward")
	}
	m.dx = sized(m.dx, m.lastX)
	if err := tensor.MaxPool2DBackwardInto(m.dx, grad, m.argmax); err != nil {
		return nil, err
	}
	return m.dx, nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Spec implements Layer.
func (m *MaxPool2D) Spec() LayerSpec {
	return LayerSpec{Kind: "maxpool2d", Ints: map[string]int{"size": m.size}}
}

func (m *MaxPool2D) clone() Layer { return &MaxPool2D{size: m.size} }

// Flatten copies any input into a vector.
type Flatten struct {
	y, lastX, dx *tensor.Tensor
}

// NewFlatten constructs a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if f.y == nil || f.y.Len() != x.Len() {
		f.y = tensor.New(x.Len())
	}
	f.lastX = x
	copy(f.y.Data(), x.Data())
	return f.y, nil
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.lastX == nil {
		return nil, fmt.Errorf("flatten: Backward before Forward")
	}
	if grad.Len() != f.lastX.Len() {
		return nil, fmt.Errorf("flatten: grad %v for input %v", grad.Shape(), f.lastX.Shape())
	}
	f.dx = sized(f.dx, f.lastX)
	copy(f.dx.Data(), grad.Data())
	return f.dx, nil
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Spec implements Layer.
func (f *Flatten) Spec() LayerSpec { return LayerSpec{Kind: "flatten"} }

func (f *Flatten) clone() Layer { return &Flatten{} }

// elementwise holds the workspaces of an activation layer.
type elementwise struct {
	y, lastX, dx *tensor.Tensor
}

// forward sizes the output to x and records x for Backward.
func (e *elementwise) forward(x *tensor.Tensor) (y, in []float64) {
	e.y = sized(e.y, x)
	e.lastX = x
	return e.y.Data(), x.Data()
}

// backward sizes the input gradient, or fails if grad cannot be this layer's.
func (e *elementwise) backward(kind string, grad *tensor.Tensor) (dx, g []float64, err error) {
	if e.lastX == nil {
		return nil, nil, fmt.Errorf("%s: Backward before Forward", kind)
	}
	if grad.Len() != e.lastX.Len() {
		return nil, nil, fmt.Errorf("%s: grad %v for input %v", kind, grad.Shape(), e.lastX.Shape())
	}
	e.dx = sized(e.dx, e.lastX)
	return e.dx.Data(), grad.Data(), nil
}

// ReLU is max(0, x) elementwise.
type ReLU struct{ elementwise }

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, in := l.forward(x)
	for i, v := range in {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return l.y, nil
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	dx, g, err := l.backward("relu", grad)
	if err != nil {
		return nil, err
	}
	for i, v := range l.lastX.Data() {
		if v <= 0 {
			dx[i] = 0
		} else {
			dx[i] = g[i]
		}
	}
	return l.dx, nil
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Spec implements Layer.
func (l *ReLU) Spec() LayerSpec { return LayerSpec{Kind: "relu"} }

func (l *ReLU) clone() Layer { return &ReLU{} }

// Tanh is tanh(x) elementwise.
type Tanh struct{ elementwise }

// NewTanh constructs a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, in := l.forward(x)
	for i, v := range in {
		y[i] = math.Tanh(v)
	}
	return l.y, nil
}

// Backward implements Layer.
func (l *Tanh) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	dx, g, err := l.backward("tanh", grad)
	if err != nil {
		return nil, err
	}
	for i, y := range l.y.Data() {
		dx[i] = g[i] * (1 - y*y)
	}
	return l.dx, nil
}

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Tanh) Spec() LayerSpec { return LayerSpec{Kind: "tanh"} }

func (l *Tanh) clone() Layer { return &Tanh{} }

// Sigmoid is 1/(1+e^-x) elementwise.
type Sigmoid struct{ elementwise }

// NewSigmoid constructs a Sigmoid activation.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward implements Layer.
func (l *Sigmoid) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, in := l.forward(x)
	for i, v := range in {
		y[i] = 1 / (1 + math.Exp(-v))
	}
	return l.y, nil
}

// Backward implements Layer.
func (l *Sigmoid) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	dx, g, err := l.backward("sigmoid", grad)
	if err != nil {
		return nil, err
	}
	for i, y := range l.y.Data() {
		dx[i] = g[i] * (y * (1 - y))
	}
	return l.dx, nil
}

// Params implements Layer.
func (l *Sigmoid) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Sigmoid) Spec() LayerSpec { return LayerSpec{Kind: "sigmoid"} }

func (l *Sigmoid) clone() Layer { return &Sigmoid{} }

// Dropout randomly zeroes a fraction p of activations during training and
// scales the survivors by 1/(1-p) (inverted dropout). At inference it is the
// identity and returns its input itself, so what it returns then lives only
// as long as that input does.
type Dropout struct {
	p      float64
	r      *rng.Stream
	active bool
	// y and mask are the training-mode workspaces; masked records whether
	// the last Forward dropped anything.
	y      *tensor.Tensor
	mask   []float64
	masked bool
	dx     *tensor.Tensor
}

// NewDropout constructs a Dropout layer with drop probability p, drawing
// masks from r.
func NewDropout(p float64, r *rng.Stream) *Dropout {
	return &Dropout{p: p, r: r}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	d.masked = d.active && d.p > 0
	if !d.masked {
		return x, nil
	}
	keep := 1 - d.p
	d.y = sized(d.y, x)
	if len(d.mask) != x.Len() {
		d.mask = make([]float64, x.Len())
	}
	y := d.y.Data()
	for i, v := range x.Data() {
		if d.r.Float64() < d.p {
			y[i] = 0
			d.mask[i] = 0
		} else {
			y[i] = v / keep
			d.mask[i] = 1 / keep
		}
	}
	return d.y, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if !d.masked {
		return grad, nil
	}
	if len(d.mask) != grad.Len() {
		return nil, fmt.Errorf("dropout: grad %v vs mask %d", grad.Shape(), len(d.mask))
	}
	d.dx = sized(d.dx, grad)
	dx := d.dx.Data()
	for i, g := range grad.Data() {
		dx[i] = g * d.mask[i]
	}
	return d.dx, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (d *Dropout) Spec() LayerSpec {
	return LayerSpec{Kind: "dropout", Floats: map[string]float64{"p": d.p}}
}

// clone gives the copy its own mask stream, derived from a snapshot of the
// original's without advancing it: cloning a shared network concurrently
// stays read-only, and two clones training side by side never race on (or
// draw each other's values from) one stream.
func (d *Dropout) clone() Layer {
	cp := &Dropout{p: d.p}
	if d.r != nil {
		snapshot := *d.r
		cp.r = snapshot.Split("dropout-clone")
	}
	return cp
}
