package tensor

// Conv2DShape computes the output spatial dimensions of a 2D convolution
// with the given input size, kernel, stride and padding.
func Conv2DShape(h, w, kh, kw, stride, pad int) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	return oh, ow
}
