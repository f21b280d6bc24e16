package tensor

import "fmt"

// Conv2DShape computes the output spatial dimensions of a 2D convolution
// with the given input size, kernel, stride and padding.
func Conv2DShape(h, w, kh, kw, stride, pad int) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	return oh, ow
}

// MaxPool2DInto applies max pooling with a square window and equal stride
// over a (C, H, W) tensor, writing the pooled values into out, shaped
// (C, H/size, W/size), and into argmax, one entry per output element, the
// index into img's flat storage of the maximum that backprop needs.
func MaxPool2DInto(out *Tensor, argmax []int, img *Tensor, size int) error {
	if img.Dims() != 3 {
		return fmt.Errorf("%w: maxpool input %v, want (C,H,W)", ErrShape, img.Shape())
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	oh, ow := h/size, w/size
	if oh == 0 || ow == 0 {
		return fmt.Errorf("%w: maxpool window %d too large for %v", ErrShape, size, img.Shape())
	}
	if out.Dims() != 3 || out.Dim(0) != c || out.Dim(1) != oh || out.Dim(2) != ow || len(argmax) != len(out.data) {
		return fmt.Errorf("%w: maxpool output %v with %d argmax for input %v", ErrShape, out.Shape(), len(argmax), img.Shape())
	}
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := img.data[base+oy*size*w+ox*size]
				bestIdx := base + oy*size*w + ox*size
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						idx := base + (oy*size+ky)*w + (ox*size + kx)
						if v := img.data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out.data[oi] = best
				argmax[oi] = bestIdx
				oi++
			}
		}
	}
	return nil
}

// MaxPool2DBackwardInto scatters the pooled gradient back through the argmax
// indices into dst, the input-shaped gradient, overwriting it.
func MaxPool2DBackwardInto(dst, grad *Tensor, argmax []int) error {
	if grad.Len() != len(argmax) {
		return fmt.Errorf("%w: pool backward grad %v vs %d argmax", ErrShape, grad.Shape(), len(argmax))
	}
	dst.Zero()
	for i, idx := range argmax {
		dst.data[idx] += grad.data[i]
	}
	return nil
}
