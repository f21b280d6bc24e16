package nn

import (
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
)

// benchInput fills a tensor with values in (0, 1), then zeroes the given
// share of them at random: what a layer sees after a ReLU.
func benchInput(r *rng.Stream, zeroShare float64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		if !r.Bool(zeroShare) {
			x.Data()[i] = 1 - r.Float64()
		}
	}
	return x
}

// BenchmarkConv2DForward times the default agent's two convolutions on
// all-nonzero input and on input with half its values zero at random, the
// worst case for the per-tap zero test (conv2 reads a ReLU's output).
func BenchmarkConv2DForward(b *testing.B) {
	layers := []struct {
		name string
		conv *Conv2D
	}{
		{"conv1", NewConv2D(3, 48, 64, 8, 3, 2, 1)},
		{"conv2", NewConv2D(8, 24, 32, 12, 3, 2, 1)},
	}
	inputs := []struct {
		name      string
		zeroShare float64
	}{{"dense", 0}, {"half-zero", 0.5}}
	for _, l := range layers {
		r := rng.New(6)
		l.conv.InitHe(r)
		for _, in := range inputs {
			x := benchInput(r, in.zeroShare, l.conv.inC, l.conv.inH, l.conv.inW)
			b.Run(l.name+"/"+in.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := l.conv.Forward(x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDenseForward times the default agent's trunk projection on a
// half-zero input.
func BenchmarkDenseForward(b *testing.B) {
	r := rng.New(7)
	d := NewDense(12*12*16, 64).InitHe(r)
	x := benchInput(r, 0.5, 12*12*16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
