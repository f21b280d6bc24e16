package tensor_test

// The bit-identity suite of the nn layers. It lives here, not in
// internal/nn, because the reference it compares them to (reference_test.go:
// the im2col + matmul path the layers ran on before their direct kernels) is
// test-only code of this package, which an external test of this package
// can reach and a test of nn cannot.

import (
	"fmt"
	"math"
	"testing"

	"github.com/avfi/avfi/internal/nn"
	"github.com/avfi/avfi/internal/rng"
	. "github.com/avfi/avfi/internal/tensor"
)

func must(t *Tensor, err error) *Tensor {
	if err != nil {
		panic(err)
	}
	return t
}

// sparse fills a tensor with values in (-1, 1), about a third of them exact
// zeros: what a layer reads after a ReLU.
func sparse(r *rng.Stream, shape ...int) *Tensor {
	x := New(shape...)
	for i := range x.Data() {
		if !r.Bool(0.3) {
			x.Data()[i] = r.Range(-1, 1)
		}
	}
	return x
}

var nonFinite = []float64{math.Inf(1), math.Inf(-1), math.NaN()}

// finite reports whether every element of x is finite.
func finite(x *Tensor) bool {
	for _, v := range x.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sameBits compares two results bit for bit. Two NaNs count as equal
// whatever their payloads: which operand's payload an addition of two NaNs
// keeps depends on the register the compiler put each in, and nothing
// downstream can observe it.
func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		g := got.Data()[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// refParams mirrors a layer's parameters for the reference: the same values
// (shared, so corrupting one corrupts both) and a gradient accumulator of
// its own, starting from the layer's.
type refParams struct {
	value, grad []*Tensor
}

func mirror(l nn.Layer) refParams {
	var p refParams
	for _, q := range l.Params() {
		p.value = append(p.value, q.Value)
		p.grad = append(p.grad, q.Grad.Clone())
	}
	return p
}

func (p refParams) accumulate(i int, d *Tensor) {
	if err := p.grad[i].AddInPlace(d); err != nil {
		panic(err)
	}
}

func (p refParams) check(t *testing.T, l nn.Layer) {
	t.Helper()
	for i, q := range l.Params() {
		sameBits(t, "grad "+q.Name, q.Grad, p.grad[i])
	}
}

// refDense is the parent's Dense: forward, then backward accumulating into p.
func refDense(p refParams, x, grad *Tensor) (y, dx *Tensor) {
	w, b := p.value[0], p.value[1]
	row := must(x.Reshape(1, x.Len()))
	y2 := must(MatMul(row, w))
	if err := y2.AddRowVec(b); err != nil {
		panic(err)
	}
	g := must(grad.Reshape(1, grad.Len()))
	p.accumulate(0, must(MatMulTransA(row, g)))
	p.accumulate(1, grad)
	return must(y2.Reshape(b.Len())), must(must(MatMulTransB(g, w)).Reshape(x.Len()))
}

func TestDenseMatchesMatMulReference(t *testing.T) {
	for _, in := range []int{1, 5, 17} {
		for _, out := range []int{1, 3, 8, 13} {
			t.Run(fmt.Sprintf("%dx%d", in, out), func(t *testing.T) {
				r := rng.New(uint64(100*in + out))
				d := nn.NewDense(in, out).InitXavier(r)
				copy(d.Params()[1].Value.Data(), sparse(r, out).Data())
				ref := mirror(d)
				for step := 0; step < 3; step++ {
					x, grad := sparse(r, in), sparse(r, out)
					if step == 2 {
						// Corrupt every weight row that meets a zero input.
						x.Data()[0] = 0
						for k, a := range x.Data() {
							if a == 0 {
								for j := 0; j < out; j++ {
									d.Params()[0].Value.Set(nonFinite[(k+j)%3], k, j)
								}
							}
						}
					}
					y, err := d.Forward(x)
					if err != nil {
						t.Fatal(err)
					}
					dx, err := d.Backward(grad)
					if err != nil {
						t.Fatal(err)
					}
					wantY, wantDx := refDense(ref, x, grad)
					sameBits(t, "output", y, wantY)
					sameBits(t, "input grad", dx, wantDx)
					ref.check(t, d)
					if step == 2 && !finite(y) {
						t.Fatal("a corrupted weight behind a zero input reached the output")
					}
				}
			})
		}
	}
}

// refConv is the parent's Conv2D: im2col, one matmul per direction, col2im.
func refConv(p refParams, x, grad *Tensor, k, stride, pad int) (y, dx *Tensor) {
	w, b := p.value[0], p.value[1]
	outC := b.Len()
	cols := must(Im2Col(x, k, k, stride, pad))
	out2d := must(MatMul(cols, w))
	if err := out2d.AddRowVec(b); err != nil {
		panic(err)
	}
	n := cols.Dim(0)
	y, g2d := New(grad.Shape()...), New(n, outC)
	for pos := 0; pos < n; pos++ {
		for oc := 0; oc < outC; oc++ {
			y.Data()[oc*n+pos] = out2d.Data()[pos*outC+oc]
			g2d.Data()[pos*outC+oc] = grad.Data()[oc*n+pos]
		}
	}
	p.accumulate(0, must(MatMulTransA(cols, g2d)))
	p.accumulate(1, must(SumRows(g2d)))
	dcols := must(MatMulTransB(g2d, w))
	return y, must(Col2Im(dcols, x.Dim(0), x.Dim(1), x.Dim(2), k, k, stride, pad))
}

func TestConv2DMatchesIm2ColReference(t *testing.T) {
	type geom struct{ inC, h, w, k, stride, pad int }
	geoms := []geom{
		{1, 7, 9, 3, 1, 0}, {3, 7, 9, 3, 1, 1}, {2, 8, 7, 3, 2, 0}, {3, 9, 10, 3, 2, 1},
		{2, 5, 5, 1, 1, 0}, {2, 6, 6, 2, 2, 1},
	}
	for _, g := range geoms {
		for _, outC := range []int{1, 3, 4, 5, 8, 12, 13} {
			name := fmt.Sprintf("in%dx%dx%d-k%d-s%d-p%d-out%d", g.inC, g.h, g.w, g.k, g.stride, g.pad, outC)
			t.Run(name, func(t *testing.T) {
				r := rng.New(uint64(1000*g.h + 10*outC + g.stride))
				c := nn.NewConv2D(g.inC, g.h, g.w, outC, g.k, g.stride, g.pad).InitHe(r)
				copy(c.Params()[1].Value.Data(), sparse(r, outC).Data())
				ref := mirror(c)
				oc, oh, ow := c.OutShape()
				for step := 0; step < 3; step++ {
					x, grad := sparse(r, g.inC, g.h, g.w), sparse(r, oc, oh, ow)
					if step == 2 {
						// A dead last channel (all zeros, as after a ReLU)
						// opposite filter rows corrupted in every way.
						ch := g.inC - 1
						for i := 0; i < g.h*g.w; i++ {
							x.Data()[ch*g.h*g.w+i] = 0
						}
						for tap := ch * g.k * g.k; tap < (ch+1)*g.k*g.k; tap++ {
							for j := 0; j < outC; j++ {
								c.Params()[0].Value.Set(nonFinite[(tap+j)%3], tap, j)
							}
						}
					}
					y, err := c.Forward(x)
					if err != nil {
						t.Fatal(err)
					}
					dx, err := c.Backward(grad)
					if err != nil {
						t.Fatal(err)
					}
					wantY, wantDx := refConv(ref, x, grad, g.k, g.stride, g.pad)
					sameBits(t, "output", y, wantY)
					sameBits(t, "input grad", dx, wantDx)
					ref.check(t, c)
					if step == 2 && !finite(y) {
						t.Fatal("a corrupted filter row behind a dead channel reached the output")
					}
				}
			})
		}
	}
}

// TestConv2DCorruptWeightMeetsLiveInput is the other half of the zero-skip
// contract: a corrupted weight opposite nonzero activations must poison the
// output exactly as it did through the matmul.
func TestConv2DCorruptWeightMeetsLiveInput(t *testing.T) {
	r := rng.New(5)
	c := nn.NewConv2D(2, 6, 6, 12, 3, 2, 1).InitHe(r)
	c.Params()[0].Value.Set(math.Inf(1), 4, 7)
	c.Params()[0].Value.Set(math.NaN(), 13, 0)
	ref := mirror(c)
	x := sparse(r, 2, 6, 6)
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y = y.Clone()
	grad := sparse(r, 12, 3, 3)
	dx, err := c.Backward(grad)
	if err != nil {
		t.Fatal(err)
	}
	wantY, wantDx := refConv(ref, x, grad, 3, 2, 1)
	sameBits(t, "output", y, wantY)
	sameBits(t, "input grad", dx, wantDx)
	ref.check(t, c)
	if finite(y) {
		t.Fatal("corrupted weights opposite live input left the output finite")
	}
}
