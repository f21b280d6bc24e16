package nn

import (
	"math"

	"github.com/avfi/avfi/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam constructs Adam with the usual defaults for unset fields.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*Param]*tensor.Tensor),
		v:       make(map[*Param]*tensor.Tensor),
	}
}

// Step updates every parameter from its accumulated gradient; the caller
// zeroes the gradients afterwards.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = make(map[*Param]*tensor.Tensor)
		o.v = make(map[*Param]*tensor.Tensor)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := o.v[p]
		for i := range p.Value.Data() {
			g := p.Grad.Data()[i]
			m.Data()[i] = o.Beta1*m.Data()[i] + (1-o.Beta1)*g
			v.Data()[i] = o.Beta2*v.Data()[i] + (1-o.Beta2)*g*g
			mHat := m.Data()[i] / bc1
			vHat := v.Data()[i] / bc2
			p.Value.Data()[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}
