// Package tensor implements the dense numeric arrays underlying the AVFI
// driving agent's neural network (the stand-in for the paper's
// imitation-learning CNN). Tensors are row-major float64 with explicit
// shapes. The package is the storage: shape bookkeeping, in-place
// elementwise updates, gob encoding and max pooling. The
// arithmetic of the layers lives in internal/nn, which writes into tensors
// it owns and allocates nothing per call.
//
// The deliberate float64 choice matters for fault injection: the hardware
// and ML fault models in internal/fault flip bits in these values directly
// (via math.Float64bits), exactly as the paper injects bit-level faults into
// the processing fabric and network weights.
package tensor

import (
	"errors"
	"fmt"
)

// Tensor is a dense row-major float64 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's volume.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d values for shape %v", ErrShape, len(data), shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFromSlice is FromSlice, panicking on error; for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor; this
// is the hook the ML fault injector uses to corrupt weights in place.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{
		shape: append([]int(nil), t.shape...),
		data:  append([]float64(nil), t.data...),
	}
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// String renders small tensors fully and large ones as a shape summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("tensor%v[%d elems]", t.shape, len(t.data))
}
