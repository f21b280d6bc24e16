// Package commfault implements communication faults on the control link
// between the driving agent and the actuators: jittered latency with
// stale-command supersession, bursty (Gilbert-Elliott) loss, and bounded
// out-of-order delivery. They extend the paper's timing-fault class to the
// failure modes real vehicle networks exhibit — congested buses, lossy
// radio links, and multipath reordering — while staying deterministic:
// every injector is a pure function of the control sequence and its
// rng.Stream, so campaigns are bit-identical at any pool size.
//
// The injectors model the link at the frame granularity the campaign
// pipeline sees (fault.TimingInjector).
package commfault

import (
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

// Canonical injector names.
const (
	DelayName   = "commdelay"
	DropName    = "commdrop"
	ReorderName = "commreorder"
)

// Delay models a congested control link: every command is assigned a
// jittered transit latency, and the actuator always executes the newest
// command that has arrived — a command overtaken in flight by a fresher
// one is superseded and never applied (sequence-number supersession).
// Until the first command arrives the actuator holds a neutral setpoint,
// the way a drive-by-wire unit coasts before its first valid message.
type Delay struct {
	// BaseFrames is the minimum transit latency.
	BaseFrames int
	// JitterFrames widens the latency to BaseFrames..BaseFrames+JitterFrames.
	JitterFrames int

	pending    []inFlight
	current    physics.Control
	hasCurrent bool
	currentSeq int
}

// inFlight is one command in transit on the faulted link.
type inFlight struct {
	seq     int
	arrival int
	ctl     physics.Control
}

var _ fault.TimingInjector = (*Delay)(nil)

// NewDelay returns the default link-latency fault (4-8 frames of transit).
func NewDelay() *Delay { return &Delay{BaseFrames: 4, JitterFrames: 4} }

// Name implements fault.TimingInjector.
func (d *Delay) Name() string { return DelayName }

// Reset implements fault.TimingInjector.
func (d *Delay) Reset() {
	d.pending = d.pending[:0]
	d.current = physics.Control{}
	d.hasCurrent = false
	d.currentSeq = 0
}

// Transform implements fault.TimingInjector.
func (d *Delay) Transform(ctl physics.Control, frame int, r *rng.Stream) physics.Control {
	lat := d.BaseFrames
	if d.JitterFrames > 0 {
		lat += r.Intn(d.JitterFrames + 1)
	}
	d.pending = append(d.pending, inFlight{seq: frame, arrival: frame + lat, ctl: ctl})

	// Apply the newest arrived command; discard everything that arrived
	// (older late arrivals are stale and superseded).
	arrived := false
	best := inFlight{}
	keep := d.pending[:0]
	for _, p := range d.pending {
		if p.arrival > frame {
			keep = append(keep, p)
			continue
		}
		if !arrived || p.seq > best.seq {
			best = p
			arrived = true
		}
	}
	d.pending = keep
	if arrived && (!d.hasCurrent || best.seq >= d.currentSeq) {
		d.current, d.hasCurrent, d.currentSeq = best.ctl, true, best.seq
	}
	if d.hasCurrent {
		return d.current
	}
	return physics.Control{}
}

// Drop models bursty packet loss with a Gilbert-Elliott two-state channel:
// a good state with rare loss and a bad state (fade, congestion burst)
// with near-total loss. On a lost command the actuator holds its last
// delivered setpoint.
type Drop struct {
	// PGoodBad and PBadGood are the per-frame state transition probabilities.
	PGoodBad, PBadGood float64
	// PLossGood and PLossBad are the per-frame loss probabilities in each state.
	PLossGood, PLossBad float64

	bad     bool
	last    physics.Control
	hasLast bool
}

var _ fault.TimingInjector = (*Drop)(nil)

// NewDrop returns the default bursty-loss fault: ~5-frame loss bursts,
// near-lossless in between.
func NewDrop() *Drop {
	return &Drop{PGoodBad: 0.05, PBadGood: 0.2, PLossGood: 0.01, PLossBad: 0.95}
}

// Name implements fault.TimingInjector.
func (d *Drop) Name() string { return DropName }

// Reset implements fault.TimingInjector.
func (d *Drop) Reset() {
	d.bad = false
	d.last = physics.Control{}
	d.hasLast = false
}

// Transform implements fault.TimingInjector.
func (d *Drop) Transform(ctl physics.Control, _ int, r *rng.Stream) physics.Control {
	if d.bad {
		d.bad = !r.Bool(d.PBadGood)
	} else {
		d.bad = r.Bool(d.PGoodBad)
	}
	loss := d.PLossGood
	if d.bad {
		loss = d.PLossBad
	}
	if r.Bool(loss) && d.hasLast {
		return d.last
	}
	d.last, d.hasLast = ctl, true
	return ctl
}

// Reorder models multipath out-of-order delivery: commands pass through a
// small in-flight buffer and leave it in random order, with a hard
// freshness bound — a command that has waited Depth frames is delivered
// unconditionally, so displacement never exceeds Depth. While the buffer
// fills, the actuator holds its last setpoint.
type Reorder struct {
	// Depth is the in-flight buffer size and the displacement bound.
	Depth int

	buf     []buffered
	last    physics.Control
	hasLast bool
}

// buffered is one command waiting in the reorder buffer.
type buffered struct {
	seq int
	ctl physics.Control
}

var _ fault.TimingInjector = (*Reorder)(nil)

// NewReorder returns the default reorder fault (4-command horizon).
func NewReorder() *Reorder { return &Reorder{Depth: 4} }

// Name implements fault.TimingInjector.
func (d *Reorder) Name() string { return ReorderName }

// Reset implements fault.TimingInjector.
func (d *Reorder) Reset() {
	d.buf = d.buf[:0]
	d.last = physics.Control{}
	d.hasLast = false
}

// Transform implements fault.TimingInjector.
func (d *Reorder) Transform(ctl physics.Control, frame int, r *rng.Stream) physics.Control {
	d.buf = append(d.buf, buffered{seq: frame, ctl: ctl})
	if len(d.buf) < d.Depth {
		if d.hasLast {
			return d.last
		}
		return physics.Control{}
	}
	// The oldest command expires after Depth frames in flight; otherwise
	// delivery order is random within the buffer.
	i := 0
	if frame-d.buf[0].seq < d.Depth {
		i = r.Intn(len(d.buf))
	}
	out := d.buf[i].ctl
	d.buf = append(d.buf[:i], d.buf[i+1:]...)
	d.last, d.hasLast = out, true
	return out
}

func init() {
	fault.Register(fault.Spec{
		Name: DelayName, Class: fault.ClassComm,
		Description: "control-link latency 4-8 frames with stale-command supersession",
		New:         func() interface{} { return NewDelay() },
	})
	fault.Register(fault.Spec{
		Name: DropName, Class: fault.ClassComm,
		Description: "bursty Gilbert-Elliott control loss (last setpoint held)",
		New:         func() interface{} { return NewDrop() },
	})
	fault.Register(fault.Spec{
		Name: ReorderName, Class: fault.ClassComm,
		Description: "out-of-order control delivery, displacement bounded by 4",
		New:         func() interface{} { return NewReorder() },
	})
}
