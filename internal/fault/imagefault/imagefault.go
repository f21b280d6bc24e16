// Package imagefault implements AVFI's camera data-fault models — the
// input-fault suite of the paper's Figures 2 and 3: Gaussian sensor noise,
// salt & pepper noise, solid occlusions, transparent occlusions, and water
// droplets on the lens.
//
// Each injector corrupts the RGB frame between the simulator's camera and
// the driving agent ("AVFI intercepts the RGB camera sensor data from the
// server, modifies the image according to a sensor-specific fault model,
// and then forwards it to the IL-CNN"). Injectors are deterministic given
// the campaign's rng stream; occlusion geometry is sampled once per
// episode (a sticker or droplet stays put frame to frame).
package imagefault

import (
	"math"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names (the x-axis labels of Figures 2 and 3).
const (
	GaussianName   = "gaussian"
	SaltPepperName = "saltpepper"
	SolidOccName   = "solidocc"
	TranspOccName  = "transpocc"
	WaterDropName  = "waterdrop"
)

// Gaussian adds zero-mean Gaussian noise to every channel.
type Gaussian struct {
	// Sigma is the noise stddev in intensity units ([0,1] scale).
	Sigma float64
}

var _ fault.InputInjector = (*Gaussian)(nil)

// NewGaussian returns the paper-default Gaussian camera fault.
func NewGaussian() *Gaussian { return &Gaussian{Sigma: 0.28} }

// Name implements fault.InputInjector.
func (g *Gaussian) Name() string { return GaussianName }

// InjectImage implements fault.InputInjector.
func (g *Gaussian) InjectImage(img *render.Image, _ int, r *rng.Stream) {
	for i := range img.Pix {
		img.Pix[i] = geom.Clamp(img.Pix[i]+r.NormScaled(0, g.Sigma), 0, 1)
	}
}

// InjectMeasurements implements fault.InputInjector (camera-only fault).
func (g *Gaussian) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// SaltPepper flips a fraction of pixels to pure black or white.
type SaltPepper struct {
	// Prob is the per-pixel corruption probability.
	Prob float64
}

var _ fault.InputInjector = (*SaltPepper)(nil)

// NewSaltPepper returns the paper-default salt & pepper fault.
func NewSaltPepper() *SaltPepper { return &SaltPepper{Prob: 0.20} }

// Name implements fault.InputInjector.
func (s *SaltPepper) Name() string { return SaltPepperName }

// InjectImage implements fault.InputInjector.
func (s *SaltPepper) InjectImage(img *render.Image, _ int, r *rng.Stream) {
	n := img.W * img.H
	for p := 0; p < n; p++ {
		if !r.Bool(s.Prob) {
			continue
		}
		v := 0.0
		if r.Bool(0.5) {
			v = 1.0
		}
		y, x := p/img.W, p%img.W
		img.SetRGB(y, x, v, v, v)
	}
}

// InjectMeasurements implements fault.InputInjector (camera-only fault).
func (s *SaltPepper) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// SolidOcclusion blacks out a rectangular region — debris or a sticker on
// the lens. The rectangle is sampled on first use per episode and persists.
type SolidOcclusion struct {
	// FracW, FracH are the occluded fraction of each image dimension.
	FracW, FracH float64

	placed         bool
	x0, y0, x1, y1 int
}

var _ fault.InputInjector = (*SolidOcclusion)(nil)

// NewSolidOcclusion returns the paper-default solid occlusion.
func NewSolidOcclusion() *SolidOcclusion { return &SolidOcclusion{FracW: 0.4, FracH: 0.5} }

// Name implements fault.InputInjector.
func (s *SolidOcclusion) Name() string { return SolidOccName }

// InjectImage implements fault.InputInjector.
func (s *SolidOcclusion) InjectImage(img *render.Image, _ int, r *rng.Stream) {
	if !s.placed {
		s.place(img, r)
	}
	for y := s.y0; y < s.y1; y++ {
		for x := s.x0; x < s.x1; x++ {
			img.SetRGB(y, x, 0, 0, 0)
		}
	}
}

func (s *SolidOcclusion) place(img *render.Image, r *rng.Stream) {
	w := int(float64(img.W) * s.FracW)
	h := int(float64(img.H) * s.FracH)
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	s.x0 = r.Intn(img.W - w + 1)
	s.y0 = r.Intn(img.H - h + 1)
	s.x1 = s.x0 + w
	s.y1 = s.y0 + h
	s.placed = true
}

// InjectMeasurements implements fault.InputInjector (camera-only fault).
func (s *SolidOcclusion) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// TransparentOcclusion overlays a translucent gray film over a region —
// dirt or condensation that attenuates rather than blocks.
type TransparentOcclusion struct {
	FracW, FracH float64
	// Alpha is the film opacity in [0,1].
	Alpha float64

	placed         bool
	x0, y0, x1, y1 int
}

var _ fault.InputInjector = (*TransparentOcclusion)(nil)

// NewTransparentOcclusion returns the paper-default transparent occlusion.
func NewTransparentOcclusion() *TransparentOcclusion {
	return &TransparentOcclusion{FracW: 0.6, FracH: 0.6, Alpha: 0.65}
}

// Name implements fault.InputInjector.
func (t *TransparentOcclusion) Name() string { return TranspOccName }

// InjectImage implements fault.InputInjector.
func (t *TransparentOcclusion) InjectImage(img *render.Image, _ int, r *rng.Stream) {
	if !t.placed {
		w := int(float64(img.W) * t.FracW)
		h := int(float64(img.H) * t.FracH)
		if w < 1 {
			w = 1
		}
		if h < 1 {
			h = 1
		}
		t.x0 = r.Intn(img.W - w + 1)
		t.y0 = r.Intn(img.H - h + 1)
		t.x1, t.y1 = t.x0+w, t.y0+h
		t.placed = true
	}
	const film = 0.5
	for y := t.y0; y < t.y1; y++ {
		for x := t.x0; x < t.x1; x++ {
			rr, gg, bb := img.RGB(y, x)
			img.SetRGB(y, x,
				rr*(1-t.Alpha)+film*t.Alpha,
				gg*(1-t.Alpha)+film*t.Alpha,
				bb*(1-t.Alpha)+film*t.Alpha,
			)
		}
	}
}

// InjectMeasurements implements fault.InputInjector (camera-only fault).
func (t *TransparentOcclusion) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

// WaterDrop renders lens water droplets. A droplet on a lens acts as a
// strong fisheye element: inside each droplet the image is sampled from a
// flipped, magnified source region (real droplets invert the scene),
// lightly blurred and brightened. Droplets are sampled once per episode and
// slowly slide down the lens.
type WaterDrop struct {
	// Drops is the droplet count.
	Drops int
	// RadiusFrac is each droplet's radius as a fraction of image width.
	RadiusFrac float64
	// Refraction is the source-displacement factor inside a droplet:
	// -1 samples the mirror image across the droplet center.
	Refraction float64

	placed bool
	cx, cy []float64
	rad    []float64
}

var _ fault.InputInjector = (*WaterDrop)(nil)

// NewWaterDrop returns the paper-default water droplet fault.
func NewWaterDrop() *WaterDrop {
	return &WaterDrop{Drops: 10, RadiusFrac: 0.14, Refraction: -0.8}
}

// Name implements fault.InputInjector.
func (w *WaterDrop) Name() string { return WaterDropName }

// InjectImage implements fault.InputInjector.
func (w *WaterDrop) InjectImage(img *render.Image, frame int, r *rng.Stream) {
	if !w.placed {
		for i := 0; i < w.Drops; i++ {
			w.cx = append(w.cx, r.Range(0, float64(img.W)))
			w.cy = append(w.cy, r.Range(0, float64(img.H)))
			w.rad = append(w.rad, r.Range(0.6, 1.4)*w.RadiusFrac*float64(img.W))
		}
		w.placed = true
	}
	src := img.Clone()
	for i := range w.cx {
		// Droplets slide slowly down the lens.
		cy := w.cy[i] + float64(frame)*0.03
		w.refractDisk(img, src, w.cx[i], cy, w.rad[i])
	}
}

// refractDisk replaces the disk's pixels with a refracted (flipped and
// magnified around the droplet center), blurred and brightened sample of
// the source image.
func (w *WaterDrop) refractDisk(dst, src *render.Image, cx, cy, rad float64) {
	x0 := int(math.Max(0, cx-rad))
	x1 := int(math.Min(float64(dst.W-1), cx+rad))
	y0 := int(math.Max(0, cy-rad))
	y1 := int(math.Min(float64(dst.H-1), cy+rad))
	const k = 1 // blur kernel half-size
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if dx*dx+dy*dy > rad*rad {
				continue
			}
			// Refracted source coordinate: displaced across the center.
			sx := int(cx + dx*w.Refraction)
			sy := int(cy + dy*w.Refraction)
			var sr, sg, sb float64
			n := 0
			for yy := sy - k; yy <= sy+k; yy++ {
				for xx := sx - k; xx <= sx+k; xx++ {
					if yy < 0 || yy >= src.H || xx < 0 || xx >= src.W {
						continue
					}
					rr, gg, bb := src.RGB(yy, xx)
					sr += rr
					sg += gg
					sb += bb
					n++
				}
			}
			if n == 0 {
				// Refraction pointed outside the frame: droplet renders as
				// bright sky-colored glare.
				dst.SetRGB(y, x, 0.85, 0.88, 0.92)
				continue
			}
			brighten := 1.2
			dst.SetRGB(y, x,
				geom.Clamp(sr/float64(n)*brighten, 0, 1),
				geom.Clamp(sg/float64(n)*brighten, 0, 1),
				geom.Clamp(sb/float64(n)*brighten, 0, 1),
			)
		}
	}
}

// InjectMeasurements implements fault.InputInjector (camera-only fault).
func (w *WaterDrop) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

func init() {
	fault.Register(fault.Spec{
		Name: GaussianName, Class: fault.ClassData,
		Description: "Gaussian camera noise (sigma 0.28)",
		New:         func() interface{} { return NewGaussian() },
	})
	fault.Register(fault.Spec{
		Name: SaltPepperName, Class: fault.ClassData,
		Description: "salt & pepper pixel corruption (p=0.20)",
		New:         func() interface{} { return NewSaltPepper() },
	})
	fault.Register(fault.Spec{
		Name: SolidOccName, Class: fault.ClassData,
		Description: "solid lens occlusion (40% x 50% rectangle)",
		New:         func() interface{} { return NewSolidOcclusion() },
	})
	fault.Register(fault.Spec{
		Name: TranspOccName, Class: fault.ClassData,
		Description: "transparent lens film (60% x 60%, alpha 0.65)",
		New:         func() interface{} { return NewTransparentOcclusion() },
	})
	fault.Register(fault.Spec{
		Name: WaterDropName, Class: fault.ClassData,
		Description: "refracting water droplets on the lens (10 drops)",
		New:         func() interface{} { return NewWaterDrop() },
	})
}
