// Package nn is a from-scratch neural network library: the substrate for
// the AVFI driving agent, standing in for the TensorFlow/PyTorch stack
// behind the paper's imitation-learning CNN (Codevilla et al., ICRA 2018).
//
// It provides the layer types the paper's Figure 1 names — convolutional
// perception layers, fully connected layers, and a recurrent cell — plus
// losses, SGD/Adam optimizers, deterministic initialization, gob
// serialization, and, critically for AVFI, *parameter visitation hooks*
// that the machine-learning fault injector uses to corrupt weights exactly
// as the paper describes ("adding noise into the parameters of the machine
// learning model").
//
// # Workspaces: who owns which tensor, and for how long
//
// Layers process one sample at a time and allocate nothing per call. Every
// layer owns the tensor its Forward returns (and the one its Backward
// returns) and overwrites it on its next Forward (Backward): a result is
// valid until that layer runs again, so a caller that keeps one across
// calls must Clone it. In the other direction a layer keeps its last input
// by reference, not by copy, until Backward has used it; the caller must
// leave that tensor alone in between, which holds by construction inside a
// Network, where each input is the previous layer's workspace. Workspaces
// of a fixed geometry (Conv2D, Dense, RNNCell) are sized at construction,
// the rest on first use or when the input shape changes, and whatever only
// Backward needs is created by the first Backward, so a network that only
// ever infers (one clone per campaign episode) never pays for it.
//
// A Network is therefore not safe for concurrent use. Clone gives every
// layer fresh workspaces, never shared ones: campaign code clones one
// network per episode goroutine.
//
// What a layer must never keep is anything derived from its weights: no
// packed, transposed or otherwise cached copy. The fault injectors rewrite
// Param.Value in place through VisitParams between two Forward calls, and a
// cached copy would turn every weight fault into a silent no-op. Forward
// reads the weights where they are, every time.
package nn

import (
	"errors"
	"fmt"

	"github.com/avfi/avfi/internal/tensor"
)

// ErrBadSpec is returned when deserializing a malformed layer spec.
var ErrBadSpec = errors.New("nn: bad layer spec")

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// zeroGrad clears the gradient accumulator.
func (p *Param) zeroGrad() { p.Grad.Zero() }

// Layer is one stage of a feed-forward network. See the package comment for
// the ownership rules its two passes follow.
type Layer interface {
	// Forward computes the output into a tensor the layer owns and returns
	// it: valid until this layer's next Forward, never to be written by the
	// caller. The layer retains x itself (not a copy) for Backward. The one
	// layer with nothing to compute, Dropout at inference, returns x.
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	// Backward consumes dLoss/dOutput for the last Forward and returns
	// dLoss/dInput in a tensor the layer owns, valid until this layer's
	// next Backward, accumulating parameter gradients into Param.Grad. It
	// retains nothing of grad.
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Spec returns a serializable description of the layer including its
	// weights.
	Spec() LayerSpec
	// clone returns a deep copy sharing no state: its own parameters,
	// fresh workspaces, its own random stream.
	clone() Layer
}

// Network is an ordered sequence of layers.
type Network struct {
	layers []Layer
	train  bool
}

// NewNetwork builds a network from layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: layers}
}

// SetTraining toggles training mode (affects Dropout).
func (n *Network) SetTraining(train bool) { n.train = train }

// Training reports whether the network is in training mode.
func (n *Network) Training() bool { return n.train }

// Layers returns the layer slice (shared; used by fault localization).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs x through every layer.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i, l := range n.layers {
		if d, ok := l.(*Dropout); ok {
			d.active = n.train
		}
		x, err = l.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%T): %w", i, l, err)
		}
	}
	return x, nil
}

// Backward propagates grad back through every layer, accumulating parameter
// gradients, and returns the gradient with respect to the network input.
func (n *Network) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad, err = n.layers[i].Backward(grad)
		if err != nil {
			return nil, fmt.Errorf("nn: backward layer %d (%T): %w", i, n.layers[i], err)
		}
	}
	return grad, nil
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.zeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// VisitParams calls fn for every parameter tensor with its layer index and
// name. This is the hook the ML fault injector (internal/fault/mlfault)
// localizes and corrupts weights through.
func (n *Network) VisitParams(fn func(layer int, name string, value *tensor.Tensor)) {
	for i, l := range n.layers {
		for _, p := range l.Params() {
			fn(i, p.Name, p.Value)
		}
	}
}

// Clone returns a deep copy of the network: independent weights and
// workspaces.
// Campaign episodes run on clones so that per-episode weight faults never
// leak across episodes.
func (n *Network) Clone() *Network {
	out := &Network{layers: make([]Layer, len(n.layers)), train: n.train}
	for i, l := range n.layers {
		out.layers[i] = l.clone()
	}
	return out
}

// IsFinite reports whether every parameter is finite. Weight bit-flip
// faults can produce Inf/NaN weights; the agent's output guard consults
// this for diagnostics.
func (n *Network) IsFinite() bool {
	for _, p := range n.Params() {
		if !p.Value.IsFinite() {
			return false
		}
	}
	return true
}

func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

func cloneParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad.Clone()}
}
