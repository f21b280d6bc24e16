package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"

	"github.com/avfi/avfi/internal/tensor"
)

// LayerSpec is the serialized form of a layer: its kind, scalar
// configuration, and weight tensors keyed by Param name. A network saves as
// []LayerSpec.
type LayerSpec struct {
	Kind    string
	Ints    map[string]int
	Tensors map[string]*tensor.Tensor
}

// Save writes the network (architecture + weights) to w.
func (n *Network) Save(w io.Writer) error {
	specs := make([]LayerSpec, len(n.layers))
	for i, l := range n.layers {
		kind, ints := l.spec()
		specs[i] = LayerSpec{Kind: kind, Ints: ints}
		if ps := l.Params(); len(ps) > 0 {
			specs[i].Tensors = make(map[string]*tensor.Tensor, len(ps))
			for _, p := range ps {
				specs[i].Tensors[p.Name] = p.Value
			}
		}
	}
	if err := gob.NewEncoder(w).Encode(specs); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// LoadWeights reads weights saved with Save into n. The file must describe
// n exactly: as many layers, and per layer the same kind, the same scalar
// configuration, and one tensor per Param with its name and shape. Every
// mismatch is an error wrapping ErrBadSpec, and n is only written once the
// whole file has been checked, so a refused file leaves n as it was.
func (n *Network) LoadWeights(r io.Reader) error {
	var specs []LayerSpec
	if err := gob.NewDecoder(r).Decode(&specs); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	if len(specs) != len(n.layers) {
		return fmt.Errorf("%w: %d layers, want %d", ErrBadSpec, len(specs), len(n.layers))
	}
	for i, l := range n.layers {
		if err := checkSpec(l, specs[i]); err != nil {
			return fmt.Errorf("nn: load layer %d: %w", i, err)
		}
	}
	for i, l := range n.layers {
		for _, p := range l.Params() {
			copy(p.Value.Data(), specs[i].Tensors[p.Name].Data())
		}
	}
	return nil
}

// checkSpec reports whether s is a saved form of l.
func checkSpec(l Layer, s LayerSpec) error {
	kind, ints := l.spec()
	if s.Kind != kind {
		return fmt.Errorf("%w: kind %q, want %q", ErrBadSpec, s.Kind, kind)
	}
	if !maps.Equal(s.Ints, ints) {
		return fmt.Errorf("%w: %s config %v, want %v", ErrBadSpec, kind, s.Ints, ints)
	}
	ps := l.Params()
	if len(s.Tensors) != len(ps) {
		return fmt.Errorf("%w: %s has %d tensors, want %d", ErrBadSpec, kind, len(s.Tensors), len(ps))
	}
	for _, p := range ps {
		t := s.Tensors[p.Name]
		if t == nil {
			return fmt.Errorf("%w: %s missing tensor %q", ErrBadSpec, kind, p.Name)
		}
		if !t.SameShape(p.Value) {
			return fmt.Errorf("%w: %s tensor %q shape %v, want %v", ErrBadSpec, kind, p.Name, t.Shape(), p.Value.Shape())
		}
	}
	return nil
}
