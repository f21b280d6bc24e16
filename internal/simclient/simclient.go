// Package simclient runs the agent side of the CARLA-style client/server
// split, and is where AVFI instruments the system under test: the fault
// pipeline (input faults -> agent -> output faults -> timing faults) wraps
// the driving agent exactly as the paper's Figure 1 places the Input FI,
// NN FI, Output FI and Timing FI hooks.
package simclient

import (
	"fmt"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/safety"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// Driver computes one control per sensor frame.
type Driver interface {
	// Drive maps a decoded sensor frame to a control command.
	Drive(frame *proto.SensorFrame) (physics.Control, error)
	// Reset is called once before the first frame of an episode.
	Reset()
}

// episodeStream is one episode's inbound decode state: a stream frame
// decoder handling full and delta frames alike, plus a reused reply
// buffer. The frame handed to the Driver and the returned reply are both
// scratch, valid only until the next step call.
type episodeStream struct {
	dec proto.FrameDecoder
	buf []byte
}

// step processes one inbound sensor frame: it returns the enveloped
// control to send back on session, or done for the episode's final frame
// (no reply is due; the result follows), or an error.
func (st *episodeStream) step(msg []byte, session uint32, d Driver) (reply []byte, done bool, err error) {
	frame, err := st.dec.Decode(msg)
	if err != nil {
		return nil, false, err
	}
	if frame.Done {
		return nil, true, nil
	}
	ctl, err := d.Drive(frame)
	if err != nil {
		return nil, false, fmt.Errorf("drive frame %d: %w", frame.Frame, err)
	}
	out := proto.Control{
		Frame:    frame.Frame,
		Steer:    ctl.Steer,
		Throttle: ctl.Throttle,
		Brake:    ctl.Brake,
	}
	st.buf = proto.AppendControl(proto.AppendEnvelopeHeader(st.buf[:0], session), &out)
	return st.buf, false, nil
}

// FaultedDriver wraps the ADA with AVFI's client-side fault pipeline.
type FaultedDriver struct {
	// Agent is the driving network (a per-episode clone; ML faults mutate
	// it in place).
	Agent *agent.Agent
	// Roles are the fault hooks, gated behind their window; nil roles are
	// skipped. The model role is applied through ApplyModelFault, before
	// the episode.
	fault.Roles
	// AEB, when non-nil, is the independent emergency-braking monitor; it
	// watches the (possibly faulted) LIDAR and can override the final
	// control with a full brake.
	AEB *safety.AEB
	// Rand supplies the episode's fault-injection randomness.
	Rand *rng.Stream

	// img and lidarScratch are the reused per-frame decode of the camera
	// payload and copy of the scan handed to the injectors, so the frame's
	// own payload stays pristine without allocating on every Drive call.
	img          render.Image
	lidarScratch []float64
}

var _ Driver = (*FaultedDriver)(nil)

// NewFaultedDriver builds the standard pipeline. Any injector may be nil;
// in also serves as the LIDAR role when it has one.
func NewFaultedDriver(a *agent.Agent, in fault.InputInjector, out fault.OutputInjector, timing fault.TimingInjector, r *rng.Stream) *FaultedDriver {
	d := &FaultedDriver{Agent: a, Roles: fault.Roles{Input: in, Output: out, Timing: timing}, Rand: r}
	if ri := fault.RolesOf(in); ri.Lidar != nil {
		d.Lidar = ri
	}
	return d
}

// ApplyModelFault corrupts the driver's agent with an ML fault injector
// (call once, before the episode).
func (d *FaultedDriver) ApplyModelFault(mi fault.ModelInjector, r *rng.Stream) {
	mi.InjectModel(func(fn func(component string, layer int, name string, t fault.ParamTensor)) {
		d.Agent.VisitParams(func(component string, layer int, name string, v *tensor.Tensor) {
			fn(component, layer, name, v)
		})
	}, r)
}

// Reset implements Driver.
func (d *FaultedDriver) Reset() {
	d.Agent.Reset()
	d.Roles.Reset()
}

// Drive implements Driver: decode sensors, apply input faults, run the
// network, apply output and timing faults.
func (d *FaultedDriver) Drive(frame *proto.SensorFrame) (physics.Control, error) {
	img := &d.img
	if err := img.SetBytes(int(frame.ImageW), int(frame.ImageH), frame.Pixels); err != nil {
		return physics.Control{}, err
	}
	speed := frame.Speed
	gpsX, gpsY := frame.GPSX, frame.GPSY
	fnum := int(frame.Frame)

	// The AEB reads the frame's scan in place unless a lidar fault needs a
	// mutable copy; the copy lives in a per-driver scratch slice so the
	// faulted path stays allocation-free after the first frame.
	lidar := frame.Lidar
	d.Roles.InjectImage(img, fnum, d.Rand)
	speed, gpsX, gpsY = d.Roles.InjectMeasurements(speed, gpsX, gpsY, fnum, d.Rand)
	if d.Lidar != nil {
		d.lidarScratch = append(d.lidarScratch[:0], frame.Lidar...)
		lidar = d.lidarScratch
		d.Roles.InjectLidar(lidar, fnum, d.Rand)
	}
	// Nothing consumes the faulted GPS fix: the IL agent reads only the
	// image and speed, so GPS-role faults cannot change an episode yet.
	_, _ = gpsX, gpsY

	ctl, err := d.Agent.Act(img, speed, world.TurnKind(frame.Command))
	if err != nil {
		return physics.Control{}, err
	}
	ctl = d.Roles.InjectControl(ctl, fnum, d.Rand)
	ctl = d.Roles.Transform(ctl, fnum, d.Rand)
	if d.AEB != nil {
		// The safety monitor sits closest to the actuators: it sees the
		// post-fault control and the post-fault LIDAR.
		ctl, _ = d.AEB.Filter(ctl, lidar, speed)
	}
	return ctl, nil
}

// AutopilotDriver adapts a ground-truth controller to the Driver interface
// for protocol tests (it ignores the sensor payload and uses a callback).
type AutopilotDriver struct {
	// Fn computes the control for a frame number.
	Fn func(frame *proto.SensorFrame) physics.Control
}

var _ Driver = (*AutopilotDriver)(nil)

// Drive implements Driver.
func (d *AutopilotDriver) Drive(frame *proto.SensorFrame) (physics.Control, error) {
	return d.Fn(frame), nil
}

// Reset implements Driver.
func (d *AutopilotDriver) Reset() {}
