package nn

import (
	"fmt"
	"math"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

var _ Layer = (*RNNCell)(nil)

// RNNCell is an Elman recurrent cell: h' = tanh(Wx·x + Wh·h + b). The
// paper's Figure 1 shows an RNN stage in the driving agent's network; the
// agent uses this cell to smooth its control outputs over time.
//
// The cell carries its hidden state between Forward calls; ResetState
// clears it at episode boundaries. Backward implements single-step
// truncated BPTT (gradient does not flow into the previous hidden state),
// which is sufficient for the imitation-learning objective used here.
type RNNCell struct {
	inSize, hiddenSize int
	wx, wh, b          *Param
	state              *tensor.Tensor
	// y is the output workspace, a buffer apart from state: a caller holding
	// the output never sees ResetState. hPart is the recurrent half of the
	// pre-activation, lastH the state the last Forward started from.
	y, hPart, lastH *tensor.Tensor
	lastX           *tensor.Tensor // last input, by reference
	dPre, dx        *tensor.Tensor // created by the first Backward
}

// NewRNNCell constructs a cell with zeroed weights and state.
func NewRNNCell(inSize, hiddenSize int) *RNNCell {
	return &RNNCell{
		inSize:     inSize,
		hiddenSize: hiddenSize,
		wx:         newParam("wx", inSize, hiddenSize),
		wh:         newParam("wh", hiddenSize, hiddenSize),
		b:          newParam("bias", hiddenSize),
		state:      tensor.New(hiddenSize),
		y:          tensor.New(hiddenSize),
		hPart:      tensor.New(hiddenSize),
		lastH:      tensor.New(hiddenSize),
	}
}

// InitXavier initializes both weight matrices Xavier-uniform.
func (c *RNNCell) InitXavier(r *rng.Stream) *RNNCell {
	limX := math.Sqrt(6 / float64(c.inSize+c.hiddenSize))
	for i := range c.wx.Value.Data() {
		c.wx.Value.Data()[i] = r.Range(-limX, limX)
	}
	limH := math.Sqrt(6 / float64(2*c.hiddenSize))
	for i := range c.wh.Value.Data() {
		c.wh.Value.Data()[i] = r.Range(-limH, limH)
	}
	return c
}

// ResetState zeroes the hidden state; call at episode boundaries.
func (c *RNNCell) ResetState() { c.state.Zero() }

// State returns the current hidden state (shared storage).
func (c *RNNCell) State() *tensor.Tensor { return c.state }

// Forward implements Layer.
func (c *RNNCell) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Len() != c.inSize {
		return nil, fmt.Errorf("rnn: input %v, want %d values", x.Shape(), c.inSize)
	}
	c.lastX = x
	copy(c.lastH.Data(), c.state.Data())
	y, hPart, b := c.y.Data(), c.hPart.Data(), c.b.Value.Data()
	vecMat(y, x.Data(), c.wx.Value.Data())
	vecMat(hPart, c.lastH.Data(), c.wh.Value.Data())
	for j := range y {
		y[j] = math.Tanh(y[j] + hPart[j] + b[j])
	}
	copy(c.state.Data(), y)
	return c.y, nil
}

// Backward implements Layer (truncated to one step).
func (c *RNNCell) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("rnn: Backward before Forward")
	}
	if grad.Len() != c.hiddenSize {
		return nil, fmt.Errorf("rnn: grad %v, want %d values", grad.Shape(), c.hiddenSize)
	}
	if c.dx == nil {
		c.dPre = tensor.New(c.hiddenSize)
		c.dx = tensor.New(c.inSize)
	}
	// dPre = grad * (1 - out^2)
	dPre := c.dPre.Data()
	for i, y := range c.y.Data() {
		dPre[i] = grad.Data()[i] * (1 - y*y)
	}
	// dWx = x^T dPre ; dWh = h^T dPre ; db = dPre ; dx = dPre Wx^T
	addOuter(c.wx.Grad.Data(), c.lastX.Data(), dPre)
	addOuter(c.wh.Grad.Data(), c.lastH.Data(), dPre)
	addTo(c.b.Grad.Data(), dPre)
	matVec(c.dx.Data(), c.wx.Value.Data(), dPre)
	return c.dx, nil
}

// Params implements Layer.
func (c *RNNCell) Params() []*Param { return []*Param{c.wx, c.wh, c.b} }

func (c *RNNCell) spec() (string, map[string]int) {
	return "rnncell", map[string]int{"in": c.inSize, "hidden": c.hiddenSize}
}

func (c *RNNCell) clone() Layer {
	return &RNNCell{
		inSize:     c.inSize,
		hiddenSize: c.hiddenSize,
		wx:         cloneParam(c.wx),
		wh:         cloneParam(c.wh),
		b:          cloneParam(c.b),
		state:      c.state.Clone(),
		y:          tensor.New(c.hiddenSize),
		hPart:      tensor.New(c.hiddenSize),
		lastH:      tensor.New(c.hiddenSize),
	}
}
