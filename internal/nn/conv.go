package nn

import (
	"fmt"
	"math"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

var _ Layer = (*Conv2D)(nil)

// Conv2D is a direct 2D convolution over (C, H, W) inputs. Filters are
// stored as a (C*KH*KW, OutC) matrix, one row per tap in (ch, ky, kx) order;
// bias is (OutC,). Output is (OutC, OH, OW).
//
// Numerics are fixed, because fault-injection results depend on them: every
// output element is accumulated from +0 over its taps in ascending
// (ch, ky, kx) order as acc += a*w, a zero activation skips its tap (so a
// weight corrupted to Inf or NaN stays invisible behind padding or a dead
// ReLU, as 0*Inf would not), and the bias is added last.
type Conv2D struct {
	inC, inH, inW        int
	outC, k, stride, pad int
	outH, outW           int
	w, b                 *Param

	y     *tensor.Tensor // output workspace
	lastX *tensor.Tensor // last input, by reference
	// Training-only workspaces, created by the first Backward: the input
	// gradient, this sample's filter gradient, and one position's output
	// gradient across channels.
	dx, dw *tensor.Tensor
	g      []float64
}

// NewConv2D constructs a convolution for a fixed input geometry. Square
// kernels only — the agent's perception stack doesn't need rectangular ones.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	oh, ow := tensor.Conv2DShape(inH, inW, k, k, stride, pad)
	return &Conv2D{
		inC: inC, inH: inH, inW: inW,
		outC: outC, k: k, stride: stride, pad: pad,
		outH: oh, outW: ow,
		w: newParam("filter", inC*k*k, outC),
		b: newParam("bias", outC),
		y: tensor.New(outC, max(oh, 0), max(ow, 0)),
	}
}

// InitHe applies He-normal initialization scaled by fan-in.
func (c *Conv2D) InitHe(r *rng.Stream) *Conv2D {
	fanIn := float64(c.inC * c.k * c.k)
	std := math.Sqrt(2 / fanIn)
	for i := range c.w.Value.Data() {
		c.w.Value.Data()[i] = r.NormScaled(0, std)
	}
	return c
}

// OutShape returns the (C, H, W) of this layer's output.
func (c *Conv2D) OutShape() (int, int, int) { return c.outC, c.outH, c.outW }

// taps is the receptive field of one output position clipped to the input:
// kernel rows [ky0, ky1) and columns [kx0, kx1) are in bounds, and x0 is the
// flat index of tap (ch 0, ky 0, kx 0), which itself may lie in the padding.
type taps struct {
	x0, ky0, ky1, kx0, kx1 int
}

// tapsAt returns the clipped receptive field of output position (oy, ox).
func (c *Conv2D) tapsAt(oy, ox int) taps {
	iy, ix := oy*c.stride-c.pad, ox*c.stride-c.pad
	return taps{
		x0:  iy*c.inW + ix,
		ky0: max(0, -iy), ky1: min(c.k, c.inH-iy),
		kx0: max(0, -ix), kx1: min(c.k, c.inW-ix),
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 3 || x.Dim(0) != c.inC || x.Dim(1) != c.inH || x.Dim(2) != c.inW {
		return nil, fmt.Errorf("conv2d: input %v, want (%d,%d,%d)", x.Shape(), c.inC, c.inH, c.inW)
	}
	if c.outH <= 0 || c.outW <= 0 {
		return nil, fmt.Errorf("conv2d: output %dx%d for input %v: %w", c.outH, c.outW, x.Shape(), tensor.ErrShape)
	}
	c.lastX = x
	in, w, b, out := x.Data(), c.w.Value.Data(), c.b.Value.Data(), c.y.Data()
	n := c.outH * c.outW
	for p := 0; p < n; p++ {
		t := c.tapsAt(p/c.outW, p%c.outW)
		// Output channels go in register blocks of 12, 8, 4 and 1, widest
		// first, so the zero test runs once per tap for the block, not once
		// per channel.
		for oc := 0; oc < c.outC; {
			o := out[oc*n+p:]
			switch rest := c.outC - oc; {
			case rest >= 12:
				a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 := c.taps12(in, w[oc:], t)
				o[0], o[n], o[2*n], o[3*n] = a0+b[oc], a1+b[oc+1], a2+b[oc+2], a3+b[oc+3]
				o[4*n], o[5*n], o[6*n], o[7*n] = a4+b[oc+4], a5+b[oc+5], a6+b[oc+6], a7+b[oc+7]
				o[8*n], o[9*n], o[10*n], o[11*n] = a8+b[oc+8], a9+b[oc+9], a10+b[oc+10], a11+b[oc+11]
				oc += 12
			case rest >= 8:
				a0, a1, a2, a3, a4, a5, a6, a7 := c.taps8(in, w[oc:], t)
				o[0], o[n], o[2*n], o[3*n] = a0+b[oc], a1+b[oc+1], a2+b[oc+2], a3+b[oc+3]
				o[4*n], o[5*n], o[6*n], o[7*n] = a4+b[oc+4], a5+b[oc+5], a6+b[oc+6], a7+b[oc+7]
				oc += 8
			case rest >= 4:
				a0, a1, a2, a3 := c.taps4(in, w[oc:], t)
				o[0], o[n], o[2*n], o[3*n] = a0+b[oc], a1+b[oc+1], a2+b[oc+2], a3+b[oc+3]
				oc += 4
			default:
				o[0] = c.taps1(in, w[oc:], t) + b[oc]
				oc++
			}
		}
	}
	return c.y, nil
}

// taps12 accumulates one output position for 12 adjacent output channels; w
// starts at the first of them in filter row 0. taps8, taps4 and taps1 are
// the same loop at other widths.
func (c *Conv2D) taps12(in, w []float64, t taps) (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 float64) {
	outC := c.outC
	for ch := 0; ch < c.inC; ch++ {
		for ky := t.ky0; ky < t.ky1; ky++ {
			xi := t.x0 + (ch*c.inH+ky)*c.inW + t.kx0
			wi := ((ch*c.k+ky)*c.k + t.kx0) * outC
			for kx := t.kx0; kx < t.kx1; kx++ {
				if a := in[xi]; a != 0 {
					ws := w[wi : wi+12 : wi+12]
					a0 += a * ws[0]
					a1 += a * ws[1]
					a2 += a * ws[2]
					a3 += a * ws[3]
					a4 += a * ws[4]
					a5 += a * ws[5]
					a6 += a * ws[6]
					a7 += a * ws[7]
					a8 += a * ws[8]
					a9 += a * ws[9]
					a10 += a * ws[10]
					a11 += a * ws[11]
				}
				xi++
				wi += outC
			}
		}
	}
	return
}

func (c *Conv2D) taps8(in, w []float64, t taps) (a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	outC := c.outC
	for ch := 0; ch < c.inC; ch++ {
		for ky := t.ky0; ky < t.ky1; ky++ {
			xi := t.x0 + (ch*c.inH+ky)*c.inW + t.kx0
			wi := ((ch*c.k+ky)*c.k + t.kx0) * outC
			for kx := t.kx0; kx < t.kx1; kx++ {
				if a := in[xi]; a != 0 {
					ws := w[wi : wi+8 : wi+8]
					a0 += a * ws[0]
					a1 += a * ws[1]
					a2 += a * ws[2]
					a3 += a * ws[3]
					a4 += a * ws[4]
					a5 += a * ws[5]
					a6 += a * ws[6]
					a7 += a * ws[7]
				}
				xi++
				wi += outC
			}
		}
	}
	return
}

func (c *Conv2D) taps4(in, w []float64, t taps) (a0, a1, a2, a3 float64) {
	outC := c.outC
	for ch := 0; ch < c.inC; ch++ {
		for ky := t.ky0; ky < t.ky1; ky++ {
			xi := t.x0 + (ch*c.inH+ky)*c.inW + t.kx0
			wi := ((ch*c.k+ky)*c.k + t.kx0) * outC
			for kx := t.kx0; kx < t.kx1; kx++ {
				if a := in[xi]; a != 0 {
					ws := w[wi : wi+4 : wi+4]
					a0 += a * ws[0]
					a1 += a * ws[1]
					a2 += a * ws[2]
					a3 += a * ws[3]
				}
				xi++
				wi += outC
			}
		}
	}
	return
}

func (c *Conv2D) taps1(in, w []float64, t taps) (a0 float64) {
	outC := c.outC
	for ch := 0; ch < c.inC; ch++ {
		for ky := t.ky0; ky < t.ky1; ky++ {
			xi := t.x0 + (ch*c.inH+ky)*c.inW + t.kx0
			wi := ((ch*c.k+ky)*c.k + t.kx0) * outC
			for kx := t.kx0; kx < t.kx1; kx++ {
				if a := in[xi]; a != 0 {
					a0 += a * w[wi]
				}
				xi++
				wi += outC
			}
		}
	}
	return
}

// Backward implements Layer. One pass over the output positions and their
// clipped taps yields both gradients in the order the matrix form summed
// them: this sample's filter gradient over positions from zero (zero
// activations skipped) and only then into Grad, and each input gradient
// element over (position, tap) ascending.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if grad.Dims() != 3 || grad.Dim(0) != c.outC || grad.Dim(1) != c.outH || grad.Dim(2) != c.outW {
		return nil, fmt.Errorf("conv2d: grad %v, want (%d,%d,%d)", grad.Shape(), c.outC, c.outH, c.outW)
	}
	if c.lastX == nil {
		return nil, fmt.Errorf("conv2d: Backward before Forward")
	}
	if c.dx == nil {
		c.dx = tensor.New(c.inC, c.inH, c.inW)
		c.dw = tensor.New(c.inC*c.k*c.k, c.outC)
		c.g = make([]float64, c.outC)
	}
	c.dx.Zero()
	c.dw.Zero()
	in, w, gr := c.lastX.Data(), c.w.Value.Data(), grad.Data()
	dx, dw, g := c.dx.Data(), c.dw.Data(), c.g
	n := c.outH * c.outW
	for p := 0; p < n; p++ {
		for oc := range g {
			g[oc] = gr[oc*n+p]
		}
		t := c.tapsAt(p/c.outW, p%c.outW)
		for ch := 0; ch < c.inC; ch++ {
			for ky := t.ky0; ky < t.ky1; ky++ {
				xi := t.x0 + (ch*c.inH+ky)*c.inW + t.kx0
				wi := ((ch*c.k+ky)*c.k + t.kx0) * c.outC
				for kx := t.kx0; kx < t.kx1; kx++ {
					wrow := w[wi:][:len(g)]
					var sum float64
					for oc, gv := range g {
						sum += gv * wrow[oc]
					}
					dx[xi] += sum
					if a := in[xi]; a != 0 {
						dwrow := dw[wi:][:len(g)]
						for oc, gv := range g {
							dwrow[oc] += a * gv
						}
					}
					xi++
					wi += c.outC
				}
			}
		}
	}
	addTo(c.w.Grad.Data(), dw)
	bg := c.b.Grad.Data()
	for oc := range bg {
		var sum float64
		for _, gv := range gr[oc*n : (oc+1)*n] {
			sum += gv
		}
		bg[oc] += sum
	}
	return c.dx, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2D) spec() (string, map[string]int) {
	return "conv2d", map[string]int{
		"inC": c.inC, "inH": c.inH, "inW": c.inW,
		"outC": c.outC, "k": c.k, "stride": c.stride, "pad": c.pad,
	}
}

func (c *Conv2D) clone() Layer {
	cp := *c
	cp.w, cp.b = cloneParam(c.w), cloneParam(c.b)
	cp.y = tensor.New(c.y.Shape()...)
	cp.lastX, cp.dx, cp.dw, cp.g = nil, nil, nil, nil
	return &cp
}
