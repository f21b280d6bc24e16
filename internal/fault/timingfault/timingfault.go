// Package timingfault implements AVFI's timing faults on the agent-to-
// actuation path: output delay (the paper's Figure 4 experiment), message
// drop, and out-of-order delivery.
//
// Paper §II: "AVFI injects timing faults into the communication paths of
// the network, resulting in (a) delays in flow of data from one component
// of the AV system to another, (b) loss of data, or (c) out-of-order
// delivery of the data packets. For example, AVFI pauses the output of
// IL-CNN for k frames and either replays or drops the outputs."
//
// All injectors here transform the per-frame control stream: they receive
// the control the agent just computed and return the control actually
// delivered to the actuators this frame.
package timingfault

import (
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	DelayName   = "outputdelay"
	DropName    = "outputdrop"
	ReorderName = "outputreorder"
)

// Delay holds the agent's output back k frames: the actuators execute the
// command computed k frames ago (the last known command is replayed while
// the pipeline fills). Delay(0) is the identity. This is exactly the
// paper's Figure 4 fault: at 15 FPS, k=30 is a 2-second decision-to-
// actuation lag.
type Delay struct {
	// Frames is the delay k.
	Frames int

	queue []physics.Control
}

var _ fault.TimingInjector = (*Delay)(nil)

// NewDelay returns a delay injector of k frames.
func NewDelay(k int) *Delay { return &Delay{Frames: k} }

// Name implements fault.TimingInjector.
func (d *Delay) Name() string { return DelayName }

// Reset implements fault.TimingInjector.
func (d *Delay) Reset() { d.queue = d.queue[:0] }

// Transform implements fault.TimingInjector.
func (d *Delay) Transform(ctl physics.Control, _ int, _ *rng.Stream) physics.Control {
	if d.Frames <= 0 {
		return ctl
	}
	d.queue = append(d.queue, ctl)
	if len(d.queue) <= d.Frames {
		// Pipeline still filling: replay the oldest known output.
		return d.queue[0]
	}
	out := d.queue[0]
	d.queue = d.queue[1:]
	return out
}

// Drop loses the agent's output with probability P each frame; actuation
// replays the last successfully delivered command (a real actuator holds
// its last setpoint when a packet is lost).
type Drop struct {
	P float64

	last    physics.Control
	hasLast bool
}

var _ fault.TimingInjector = (*Drop)(nil)

// NewDrop returns a drop injector with loss probability p.
func NewDrop(p float64) *Drop { return &Drop{P: p} }

// Name implements fault.TimingInjector.
func (d *Drop) Name() string { return DropName }

// Reset implements fault.TimingInjector.
func (d *Drop) Reset() {
	d.last = physics.Control{}
	d.hasLast = false
}

// Transform implements fault.TimingInjector.
func (d *Drop) Transform(ctl physics.Control, _ int, r *rng.Stream) physics.Control {
	if r.Bool(d.P) && d.hasLast {
		return d.last
	}
	d.last = ctl
	d.hasLast = true
	return ctl
}

// Reorder models out-of-order delivery on the control path. With
// probability P a command is delayed in flight by one frame: its slot is
// filled by replaying the previous setpoint (the actuator holds), the late
// command is applied one frame later — by which time it is stale — and the
// command that should have owned that slot is superseded and never applied
// (sequence-number supersession, as a real actuator firmware would do).
type Reorder struct {
	P float64

	held    physics.Control
	holding bool
	last    physics.Control
	hasLast bool
}

var _ fault.TimingInjector = (*Reorder)(nil)

// NewReorder returns a reorder injector with per-frame delay probability p.
func NewReorder(p float64) *Reorder { return &Reorder{P: p} }

// Name implements fault.TimingInjector.
func (d *Reorder) Name() string { return ReorderName }

// Reset implements fault.TimingInjector.
func (d *Reorder) Reset() {
	d.held = physics.Control{}
	d.holding = false
	d.last = physics.Control{}
	d.hasLast = false
}

// Transform implements fault.TimingInjector.
func (d *Reorder) Transform(ctl physics.Control, frame int, r *rng.Stream) physics.Control {
	if d.holding {
		// The late command arrives now, superseding the fresh one.
		out := d.held
		d.holding = false
		d.last = out
		return out
	}
	if d.hasLast && r.Bool(d.P) {
		// Delay this command one frame; the actuator holds its setpoint.
		d.held = ctl
		d.holding = true
		return d.last
	}
	d.last = ctl
	d.hasLast = true
	return ctl
}

func init() {
	fault.Register(fault.Spec{
		Name: DelayName, Class: fault.ClassTiming,
		Description: "output delayed 10 frames between ADA and actuation",
		New:         func() interface{} { return NewDelay(10) },
	})
	fault.Register(fault.Spec{
		Name: DropName, Class: fault.ClassTiming,
		Description: "output commands dropped with p=0.5 (last setpoint held)",
		New:         func() interface{} { return NewDrop(0.5) },
	})
	fault.Register(fault.Spec{
		Name: ReorderName, Class: fault.ClassTiming,
		Description: "adjacent output commands swapped with p=0.3",
		New:         func() interface{} { return NewReorder(0.3) },
	})
}
