// Package hwfault implements AVFI's hardware fault models: single-bit,
// multi-bit, and stuck-at faults in the processing fabric and communication
// path — "AVFI can intercept and corrupt a control command from the IL-CNN
// and then forward it to the server".
//
// Bit-level faults operate on the IEEE-754 representation of the float64
// values flowing through the system (control commands, sensor scalars) and
// on the uint8 pixels of camera payloads, matching the bit widths real
// hardware would flip.
package hwfault

import (
	"math"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	ControlBitFlipName = "ctrlbitflip"
	ControlStuckName   = "ctrlstuck"
	PixelBitFlipName   = "pixelbitflip"
)

// FlipBit flips bit k (0 = LSB of the mantissa) of a float64.
func FlipBit(v float64, k uint) float64 {
	if k > 63 {
		k %= 64
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << k))
}

// FlipBits flips n distinct random bits of a float64.
func FlipBits(v float64, n int, r *rng.Stream) float64 {
	bits := math.Float64bits(v)
	flipped := map[uint]bool{}
	for i := 0; i < n; i++ {
		k := uint(r.Intn(64))
		for flipped[k] {
			k = uint(r.Intn(64))
		}
		flipped[k] = true
		bits ^= 1 << k
	}
	return math.Float64frombits(bits)
}

// ControlBitFlip flips bits in the steering command with a per-frame
// probability — a transient fault in the actuation datapath. The physics
// layer's sanitizer then clamps whatever monster value results, exactly as
// a drive-by-wire ECU would saturate an insane input.
type ControlBitFlip struct {
	// Prob is the per-frame probability of a flip event.
	Prob float64
	// Bits is how many bits flip per event.
	Bits int
}

var _ fault.OutputInjector = (*ControlBitFlip)(nil)

// NewControlBitFlip returns the default transient control fault.
func NewControlBitFlip() *ControlBitFlip { return &ControlBitFlip{Prob: 0.10, Bits: 1} }

// Name implements fault.OutputInjector.
func (c *ControlBitFlip) Name() string { return ControlBitFlipName }

// InjectControl implements fault.OutputInjector.
func (c *ControlBitFlip) InjectControl(ctl physics.Control, _ int, r *rng.Stream) physics.Control {
	if !r.Bool(c.Prob) {
		return ctl
	}
	// Pick one of the three command fields uniformly.
	switch r.Intn(3) {
	case 0:
		ctl.Steer = FlipBits(ctl.Steer, c.Bits, r)
	case 1:
		ctl.Throttle = FlipBits(ctl.Throttle, c.Bits, r)
	default:
		ctl.Brake = FlipBits(ctl.Brake, c.Bits, r)
	}
	return ctl
}

// ControlStuck is a stuck-at fault: from its first activation, the chosen
// field is frozen at the stuck value — e.g. a steering register stuck at
// full lock.
type ControlStuck struct {
	// Field selects which command channel sticks.
	Field StuckField
	// Value is the stuck reading.
	Value float64
}

// StuckField enumerates control channels. Enums start at one.
type StuckField int

// Stuck-at channels.
const (
	StuckInvalid StuckField = iota
	StuckSteer
	StuckThrottle
	StuckBrake
)

var _ fault.OutputInjector = (*ControlStuck)(nil)

// NewControlStuck returns the default stuck fault: steering stuck 30% left.
func NewControlStuck() *ControlStuck { return &ControlStuck{Field: StuckSteer, Value: 0.3} }

// Name implements fault.OutputInjector.
func (c *ControlStuck) Name() string { return ControlStuckName }

// InjectControl implements fault.OutputInjector.
func (c *ControlStuck) InjectControl(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	switch c.Field {
	case StuckSteer:
		ctl.Steer = c.Value
	case StuckThrottle:
		ctl.Throttle = c.Value
	case StuckBrake:
		ctl.Brake = c.Value
	}
	return ctl
}

// PixelBitFlip flips random bits in the camera payload — memory faults in
// the frame buffer. It implements InputInjector because it corrupts data
// on the sensor side of the agent.
type PixelBitFlip struct {
	// FlipsPerFrame is how many byte-level bit flips strike each frame.
	FlipsPerFrame int
}

var _ fault.InputInjector = (*PixelBitFlip)(nil)

// NewPixelBitFlip returns the default frame-buffer fault.
func NewPixelBitFlip() *PixelBitFlip { return &PixelBitFlip{FlipsPerFrame: 96} }

// Name implements fault.InputInjector.
func (p *PixelBitFlip) Name() string { return PixelBitFlipName }

// InjectImage implements fault.InputInjector. The image is quantized to
// bytes, bit-flipped, and dequantized — the same transformation the frame
// experiences on the wire.
func (p *PixelBitFlip) InjectImage(img *render.Image, _ int, r *rng.Stream) {
	data := img.ToBytes()
	for i := 0; i < p.FlipsPerFrame; i++ {
		idx := r.Intn(len(data))
		bit := uint(r.Intn(8))
		data[idx] ^= 1 << bit
	}
	restored, err := render.ImageFromBytes(img.W, img.H, data)
	if err != nil {
		return // cannot happen: same geometry
	}
	copy(img.Pix, restored.Pix)
}

// InjectMeasurements implements fault.InputInjector (frame-buffer only).
func (p *PixelBitFlip) InjectMeasurements(speed, gpsX, gpsY float64, _ int, _ *rng.Stream) (float64, float64, float64) {
	return speed, gpsX, gpsY
}

func init() {
	fault.Register(fault.Spec{
		Name: ControlBitFlipName, Class: fault.ClassHardware,
		Description: "transient single-bit flips in control commands (p=0.10/frame)",
		New:         func() interface{} { return NewControlBitFlip() },
	})
	fault.Register(fault.Spec{
		Name: ControlStuckName, Class: fault.ClassHardware,
		Description: "steering register stuck at +0.3",
		New:         func() interface{} { return NewControlStuck() },
	})
	fault.Register(fault.Spec{
		Name: PixelBitFlipName, Class: fault.ClassHardware,
		Description: "frame-buffer bit flips (96 bits/frame)",
		New:         func() interface{} { return NewPixelBitFlip() },
	})
}
