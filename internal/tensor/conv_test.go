package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/avfi/avfi/internal/rng"
)

func TestConv2DShape(t *testing.T) {
	cases := []struct {
		h, w, kh, kw, stride, pad int
		oh, ow                    int
	}{
		{32, 32, 3, 3, 1, 1, 32, 32},
		{32, 32, 3, 3, 2, 1, 16, 16},
		{5, 5, 3, 3, 1, 0, 3, 3},
		{8, 6, 2, 2, 2, 0, 4, 3},
	}
	for _, c := range cases {
		oh, ow := Conv2DShape(c.h, c.w, c.kh, c.kw, c.stride, c.pad)
		if oh != c.oh || ow != c.ow {
			t.Errorf("Conv2DShape(%+v) = %d,%d want %d,%d", c, oh, ow, c.oh, c.ow)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity (flattened).
	img := MustFromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols, err := Im2Col(img, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	for i, w := range []float64{1, 2, 3, 4} {
		if cols.At(i, 0) != w {
			t.Fatalf("cols = %v", cols.Data())
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 rows of 4.
	img := MustFromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols, err := Im2Col(img, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRow0 := []float64{1, 2, 4, 5}
	for j, w := range wantRow0 {
		if cols.At(0, j) != w {
			t.Fatalf("row0 = %v", cols.Data()[:4])
		}
	}
	wantRow3 := []float64{5, 6, 8, 9}
	for j, w := range wantRow3 {
		if cols.At(3, j) != w {
			t.Fatalf("row3 wrong")
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := MustFromSlice([]float64{5}, 1, 1, 1)
	cols, err := Im2Col(img, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1x1 output; center of the 3x3 receptive field is the pixel, rest pad.
	if cols.Dim(0) != 1 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	for j := 0; j < 9; j++ {
		want := 0.0
		if j == 4 {
			want = 5
		}
		if cols.At(0, j) != want {
			t.Fatalf("cols = %v", cols.Data())
		}
	}
}

func TestIm2ColErrors(t *testing.T) {
	if _, err := Im2Col(New(4, 4), 2, 2, 1, 0); err == nil {
		t.Error("2-d input did not error")
	}
	if _, err := Im2Col(New(1, 2, 2), 5, 5, 1, 0); err == nil {
		t.Error("oversized kernel did not error")
	}
}

// TestConvViaIm2ColMatchesDirect verifies the im2col+matmul path against a
// naive direct convolution.
func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	r := rng.New(10)
	const (
		c, h, w      = 2, 6, 5
		outC, kh, kw = 3, 3, 3
		stride, pad  = 1, 1
	)
	img := randTensor(r, c, h, w)
	// Filters as (C*KH*KW, OutC) matrix.
	filt := randTensor(r, c*kh*kw, outC)

	cols, err := Im2Col(img, kh, kw, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MatMul(cols, filt) // (OH*OW, OutC)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)

	// Naive direct conv.
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float64
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							fIdx := ch*kh*kw + ky*kw + kx
							sum += img.At(ch, iy, ix) * filt.At(fIdx, oc)
						}
					}
				}
				if got := out.At(oy*ow+ox, oc); math.Abs(got-sum) > 1e-9 {
					t.Fatalf("conv mismatch at oc=%d oy=%d ox=%d: %v vs %v", oc, oy, ox, got, sum)
				}
			}
		}
	}
}

// TestCol2ImAdjoint checks <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// property of an adjoint pair — this is what makes conv backprop correct.
func TestCol2ImAdjoint(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		const c, h, w, kh, kw, stride, pad = 2, 5, 4, 3, 3, 1, 1
		x := randTensor(r, c, h, w)
		cols, err := Im2Col(x, kh, kw, stride, pad)
		if err != nil {
			return false
		}
		y := randTensor(r, cols.Dim(0), cols.Dim(1))
		// <Im2Col(x), y>
		var lhs float64
		for i := range cols.Data() {
			lhs += cols.Data()[i] * y.Data()[i]
		}
		// <x, Col2Im(y)>
		back, err := Col2Im(y, c, h, w, kh, kw, stride, pad)
		if err != nil {
			return false
		}
		var rhs float64
		for i := range x.Data() {
			rhs += x.Data()[i] * back.Data()[i]
		}
		return math.Abs(lhs-rhs) < 1e-6*(1+math.Abs(lhs))
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}
