// Package render is the AVFI world simulator's camera: a software
// perspective renderer that turns the 2D town model into the forward-facing
// RGB frames the driving agent consumes — the stand-in for Unreal Engine's
// rendering in the paper's CARLA stack.
//
// The projection is a classic column raycaster: ground pixels are classified
// by road geometry (asphalt, lane markings, curb, sidewalk, grass), and
// buildings, vehicles and pedestrians are raycast per column and drawn as
// vertical wall spans with painter's-algorithm ordering. Weather modulates
// the image (fog attenuation, rain streaks and surface darkening) the way
// CARLA's weather presets degrade camera input.
//
// What matters for the paper's experiments is not photorealism but that the
// image carries the lane geometry the IL-CNN steers by, so that corrupting
// the image (Gaussian noise, occlusions, water droplets — the Figure 2/3
// fault suite) measurably degrades driving.
package render

import (
	"fmt"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/tensor"
)

// Channels is the number of color channels (RGB).
const Channels = 3

// Image is a dense RGB image with float64 channels in [0, 1], stored
// channel-major (C, H, W) to match the agent's tensor input layout.
type Image struct {
	W, H int
	// Pix has length Channels*H*W; index = c*H*W + y*W + x.
	Pix []float64
}

// NewImage returns a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, Channels*w*h)}
}

// At returns channel c at pixel (x, y).
func (im *Image) At(c, y, x int) float64 { return im.Pix[c*im.H*im.W+y*im.W+x] }

// Set assigns channel c at pixel (x, y).
func (im *Image) Set(c, y, x int, v float64) { im.Pix[c*im.H*im.W+y*im.W+x] = v }

// SetRGB assigns all three channels at pixel (x, y).
func (im *Image) SetRGB(y, x int, r, g, b float64) {
	n := im.H * im.W
	i := y*im.W + x
	im.Pix[i] = r
	im.Pix[n+i] = g
	im.Pix[2*n+i] = b
}

// RGB returns the three channels at pixel (x, y).
func (im *Image) RGB(y, x int) (r, g, b float64) {
	n := im.H * im.W
	i := y*im.W + x
	return im.Pix[i], im.Pix[n+i], im.Pix[2*n+i]
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	return &Image{W: im.W, H: im.H, Pix: append([]float64(nil), im.Pix...)}
}

// Clamp limits every channel into [0, 1] in place and returns the image.
// Fault injectors add unbounded noise; the agent input boundary clamps.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		im.Pix[i] = geom.Clamp(v, 0, 1)
	}
	return im
}

// Mean returns the average intensity over all channels; tests use it to
// verify fault models move the image statistics the way they should.
func (im *Image) Mean() float64 {
	var sum float64
	for _, v := range im.Pix {
		sum += v
	}
	return sum / float64(len(im.Pix))
}

// ToTensor copies the image into a (3, H, W) tensor for the agent network.
func (im *Image) ToTensor() *tensor.Tensor {
	t := tensor.New(Channels, im.H, im.W)
	copy(t.Data(), im.Pix)
	return t
}

// ToBytes quantizes the image to 8-bit channels for the wire protocol,
// matching CARLA's uint8 camera payloads (and giving the hardware fault
// injector realistic bit widths to flip).
func (im *Image) ToBytes() []byte {
	return im.AppendBytes(make([]byte, 0, len(im.Pix)))
}

// AppendBytes is ToBytes appending into dst — the allocation-free variant
// for frame loops that reuse a pixel buffer.
func (im *Image) AppendBytes(dst []byte) []byte {
	for _, v := range im.Pix {
		dst = append(dst, byte(geom.Clamp(v, 0, 1)*255+0.5))
	}
	return dst
}

// SetBytes overwrites the image with the w×h frame in data (ToBytes
// output), reusing Pix when it is large enough: the allocation-free form of
// ImageFromBytes for frame loops that keep one image. On error the image is
// unchanged.
func (im *Image) SetBytes(w, h int, data []byte) error {
	if w < 0 || h < 0 || len(data) != Channels*w*h {
		return fmt.Errorf("render: %d bytes for %dx%d image, want %d", len(data), w, h, Channels*w*h)
	}
	if cap(im.Pix) < len(data) {
		im.Pix = make([]float64, len(data))
	}
	im.W, im.H, im.Pix = w, h, im.Pix[:len(data)]
	for i, b := range data {
		im.Pix[i] = float64(b) / 255
	}
	return nil
}

// ImageFromBytes reconstructs an image from ToBytes output.
func ImageFromBytes(w, h int, data []byte) (*Image, error) {
	im := &Image{}
	if err := im.SetBytes(w, h, data); err != nil {
		return nil, err
	}
	return im, nil
}
