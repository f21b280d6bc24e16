package tensor

import "fmt"

// This file keeps, for tests only, the allocating im2col + matmul path the
// nn layers ran on before they got direct kernels and owned workspaces. It
// is the numerical reference: the bit-identity suite (layers_test.go)
// rebuilds each layer's forward and backward from these functions and
// compares the layers to it with math.Float64bits. Nothing outside tests
// may call them; they stay exactly as they were so the reference cannot
// drift towards the code it checks.

// Reshape returns a view with a new shape of equal volume. Storage is shared.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v to %v", ErrShape, t.shape, shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: add %v + %v", ErrShape, t.shape, o.shape)
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return nil
}

// Apply maps f over every element in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Add returns t + o elementwise.
func Add(t, o *Tensor) (*Tensor, error) {
	out := t.Clone()
	if err := out.AddInPlace(o); err != nil {
		return nil, err
	}
	return out, nil
}

// Mul returns the elementwise (Hadamard) product.
func Mul(t, o *Tensor) (*Tensor, error) {
	if !t.SameShape(o) {
		return nil, fmt.Errorf("%w: mul %v * %v", ErrShape, t.shape, o.shape)
	}
	out := t.Clone()
	for i := range out.data {
		out.data[i] *= o.data[i]
	}
	return out, nil
}

// MatMul multiplies a (m,k) tensor by a (k,n) tensor.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 || a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("%w: matmul %v x %v", ErrShape, a.shape, b.shape)
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	// ikj loop order for cache-friendly access of b's rows.
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out, nil
}

// MatMulTransB multiplies a (m,k) by the transpose of b (n,k), yielding (m,n).
// Backprop through Dense layers needs this without materializing transposes.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 || a.shape[1] != b.shape[1] {
		return nil, fmt.Errorf("%w: matmulTB %v x %v^T", ErrShape, a.shape, b.shape)
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var sum float64
			for kk := 0; kk < k; kk++ {
				sum += arow[kk] * brow[kk]
			}
			orow[j] = sum
		}
	}
	return out, nil
}

// MatMulTransA multiplies the transpose of a (k,m) by b (k,n), yielding (m,n).
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 || a.shape[0] != b.shape[0] {
		return nil, fmt.Errorf("%w: matmulTA %v^T x %v", ErrShape, a.shape, b.shape)
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.data[kk*m : (kk+1)*m]
		brow := b.data[kk*n : (kk+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out, nil
}

// AddRowVec adds a (n,) bias vector to every row of a (m,n) tensor, in place.
func (t *Tensor) AddRowVec(bias *Tensor) error {
	if t.Dims() != 2 || bias.Dims() != 1 || bias.shape[0] != t.shape[1] {
		return fmt.Errorf("%w: addRowVec %v + %v", ErrShape, t.shape, bias.shape)
	}
	m, n := t.shape[0], t.shape[1]
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += bias.data[j]
		}
	}
	return nil
}

// SumRows returns the column sums of a (m,n) tensor as an (n,) vector; used
// for bias gradients.
func SumRows(t *Tensor) (*Tensor, error) {
	if t.Dims() != 2 {
		return nil, fmt.Errorf("%w: sumRows of %v", ErrShape, t.shape)
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			out.data[j] += row[j]
		}
	}
	return out, nil
}

// Im2Col unrolls an input image tensor of shape (C, H, W) into a matrix of
// shape (OH*OW, C*KH*KW) whose rows are flattened receptive fields, so that
// convolution becomes a single matmul with the (C*KH*KW, OutC) filter
// matrix. Out-of-bounds (padding) samples read as zero.
func Im2Col(img *Tensor, kh, kw, stride, pad int) (*Tensor, error) {
	if img.Dims() != 3 {
		return nil, fmt.Errorf("%w: im2col input %v, want (C,H,W)", ErrShape, img.Shape())
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: im2col output %dx%d for input %v", ErrShape, oh, ow, img.Shape())
	}
	cols := New(oh*ow, c*kh*kw)
	row := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			dst := cols.data[row*c*kh*kw : (row+1)*c*kh*kw]
			di := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst[di] = img.data[base+iy*w+ix]
						}
						di++
					}
				}
			}
			row++
		}
	}
	return cols, nil
}

// Col2Im scatters a (OH*OW, C*KH*KW) gradient matrix back into an image
// gradient of shape (C, H, W) — the adjoint of Im2Col. Overlapping
// receptive fields accumulate.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) (*Tensor, error) {
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if cols.Dims() != 2 || cols.Dim(0) != oh*ow || cols.Dim(1) != c*kh*kw {
		return nil, fmt.Errorf("%w: col2im input %v, want (%d,%d)", ErrShape, cols.Shape(), oh*ow, c*kh*kw)
	}
	img := New(c, h, w)
	row := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			src := cols.data[row*c*kh*kw : (row+1)*c*kh*kw]
			si := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img.data[base+iy*w+ix] += src[si]
						}
						si++
					}
				}
			}
			row++
		}
	}
	return img, nil
}
