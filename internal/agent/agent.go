// Package agent implements the Autonomous Driving Agent (ADA): a
// conditional imitation-learning network in the style of Codevilla et al.
// (ICRA 2018), which the paper uses as the system under test.
//
// Architecture, mirroring the paper's Figure 1 ("Perception CNN" +
// measurement fusion + command-conditioned outputs):
//
//	camera image (3,H,W) --> conv trunk --> feature vector  \
//	                                                         concat --> per-command head --> (steer, target speed)
//	measured speed --------> dense embedding ---------------/
//
// One head exists per high-level navigation command (follow / left /
// right / straight) — the "conditional" part: the route planner's command
// selects which head drives. The head predicts steering plus a target
// speed; a longitudinal P controller converts target speed into
// throttle/brake (the speed-branch variant of Codevilla et al., which
// trains far more stably than raw throttle imitation).
//
// The agent is trained by imitating the internal/autopilot oracle, with
// steering perturbations during data collection so the network learns to
// recover from off-center states.
package agent

import (
	"fmt"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/nn"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// speedNorm normalizes speeds into roughly [0, 1] for network inputs and
// targets.
const speedNorm = 10.0

// commands is the fixed head order.
var commands = []world.TurnKind{world.TurnFollow, world.TurnLeft, world.TurnRight, world.TurnStraight}

// Config parameterizes the network.
type Config struct {
	// ImageW, ImageH must match the camera frames.
	ImageW, ImageH int
	// Conv1, Conv2 are the two conv layers' channel counts.
	Conv1, Conv2 int
	// FeatDim is the trunk's output feature size.
	FeatDim int
	// MeasDim is the measurement (speed) embedding size.
	MeasDim int
	// HeadHidden is each command head's hidden width.
	HeadHidden int
	// UseRNN inserts a recurrent cell between the trunk features and the
	// heads, giving the agent the temporal stage in the paper's Figure 1.
	UseRNN bool
	// RNNHidden is the recurrent state size when UseRNN is set.
	RNNHidden int
	// Seed initializes weights deterministically.
	Seed uint64
}

// DefaultConfig matches the default camera (64x48) with a compact net.
func DefaultConfig() Config {
	return Config{
		ImageW: 64, ImageH: 48,
		Conv1: 8, Conv2: 12,
		FeatDim:    64,
		MeasDim:    8,
		HeadHidden: 32,
		Seed:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ImageW < 8 || c.ImageH < 8 {
		return fmt.Errorf("agent: image %dx%d too small", c.ImageW, c.ImageH)
	}
	if c.Conv1 <= 0 || c.Conv2 <= 0 || c.FeatDim <= 0 || c.MeasDim <= 0 || c.HeadHidden <= 0 {
		return fmt.Errorf("agent: non-positive layer size in %+v", c)
	}
	if c.UseRNN && c.RNNHidden <= 0 {
		return fmt.Errorf("agent: UseRNN with RNNHidden %d", c.RNNHidden)
	}
	return nil
}

// Agent is the ADA. Not safe for concurrent use — Clone per goroutine.
type Agent struct {
	cfg   Config
	trunk *nn.Network
	meas  *nn.Network
	heads map[world.TurnKind]*nn.Network

	// Input workspaces, owned per agent and never shared by Clone: the
	// normalized frame, the normalized speed, and the concatenated
	// feature+measurement vector the heads read.
	in, speedIn, z *tensor.Tensor
	// Training's gradient workspaces, created by the first Train: the loss
	// gradient at the prediction and the two halves of the concat gradient.
	dPred, df, dm *tensor.Tensor
}

// newWorkspace sizes the input buffers of an agent with the given config.
func (a *Agent) newWorkspace() {
	featOut := a.cfg.FeatDim
	if a.cfg.UseRNN {
		featOut = a.cfg.RNNHidden
	}
	a.in = tensor.New(render.Channels, a.cfg.ImageH, a.cfg.ImageW)
	a.speedIn = tensor.New(1)
	a.z = tensor.New(featOut + a.cfg.MeasDim)
}

// New builds an agent with freshly initialized weights.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)

	conv1 := nn.NewConv2D(3, cfg.ImageH, cfg.ImageW, cfg.Conv1, 3, 2, 1).InitHe(r.Split("conv1"))
	c1, h1, w1 := conv1.OutShape()
	_ = c1
	conv2 := nn.NewConv2D(cfg.Conv1, h1, w1, cfg.Conv2, 3, 2, 1).InitHe(r.Split("conv2"))
	c2, h2, w2 := conv2.OutShape()

	trunkLayers := []nn.Layer{
		conv1,
		nn.NewReLU(),
		conv2,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(c2*h2*w2, cfg.FeatDim).InitHe(r.Split("trunk-fc")),
		nn.NewReLU(),
	}
	if cfg.UseRNN {
		trunkLayers = append(trunkLayers,
			nn.NewRNNCell(cfg.FeatDim, cfg.RNNHidden).InitXavier(r.Split("rnn")))
	}
	trunk := nn.NewNetwork(trunkLayers...)

	meas := nn.NewNetwork(
		nn.NewDense(1, cfg.MeasDim).InitXavier(r.Split("meas")),
		nn.NewTanh(),
	)

	a := &Agent{cfg: cfg, trunk: trunk, meas: meas}
	a.newWorkspace()
	headIn := a.z.Len()
	heads := make(map[world.TurnKind]*nn.Network, len(commands))
	for _, cmd := range commands {
		heads[cmd] = nn.NewNetwork(
			nn.NewDense(headIn, cfg.HeadHidden).InitHe(r.Split("head-"+cmd.String())),
			nn.NewReLU(),
			nn.NewDense(cfg.HeadHidden, 2).InitXavier(r.Split("head-out-"+cmd.String())),
		)
	}
	a.heads = heads
	return a, nil
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// Clone returns an independent deep copy (for concurrent episodes and for
// per-episode weight fault injection).
func (a *Agent) Clone() *Agent {
	heads := make(map[world.TurnKind]*nn.Network, len(a.heads))
	for k, h := range a.heads {
		heads[k] = h.Clone()
	}
	cp := &Agent{cfg: a.cfg, trunk: a.trunk.Clone(), meas: a.meas.Clone(), heads: heads}
	cp.newWorkspace()
	return cp
}

// Reset clears recurrent state at episode boundaries.
func (a *Agent) Reset() {
	for _, l := range a.trunk.Layers() {
		if c, ok := l.(*nn.RNNCell); ok {
			c.ResetState()
		}
	}
}

// forward runs the full network for one frame, pix being its (3, H, W)
// channel-major pixels in [0, 1], and returns the prediction (steer,
// targetSpeedNorm): the head's output workspace, valid until the next
// forward.
func (a *Agent) forward(pix []float64, speed float64, cmd world.TurnKind) ([]float64, error) {
	in := a.in.Data()
	if len(pix) != len(in) {
		return nil, fmt.Errorf("agent: frame of %d values, want %v", len(pix), a.in.Shape())
	}
	for i, v := range pix {
		in[i] = v - 0.5
	}
	feat, err := a.trunk.Forward(a.in)
	if err != nil {
		return nil, fmt.Errorf("agent: trunk: %w", err)
	}
	a.speedIn.Data()[0] = speed / speedNorm
	measOut, err := a.meas.Forward(a.speedIn)
	if err != nil {
		return nil, fmt.Errorf("agent: meas: %w", err)
	}
	z := a.z.Data()
	copy(z, feat.Data())
	copy(z[feat.Len():], measOut.Data())

	pred, err := a.head(cmd).Forward(a.z)
	if err != nil {
		return nil, fmt.Errorf("agent: head %v: %w", cmd, err)
	}
	return pred.Data(), nil
}

// head maps a command to its branch, defaulting unknown commands to Follow
// (an out-of-range command byte — e.g. after a hardware fault on the wire —
// must not crash the agent).
func (a *Agent) head(cmd world.TurnKind) *nn.Network {
	if h, ok := a.heads[cmd]; ok {
		return h
	}
	return a.heads[world.TurnFollow]
}

// speedControlGain converts target-speed error to throttle/brake.
const speedControlGain = 0.6

// Act computes the control for one frame. Non-finite network outputs (a
// consequence of injected weight faults) degrade to zeroed commands rather
// than panicking — the physical actuator layer clamps again regardless.
func (a *Agent) Act(img *render.Image, speed float64, cmd world.TurnKind) (physics.Control, error) {
	if img.W != a.cfg.ImageW || img.H != a.cfg.ImageH {
		return physics.Control{}, fmt.Errorf("agent: image %dx%d, want %dx%d", img.W, img.H, a.cfg.ImageW, a.cfg.ImageH)
	}
	pred, err := a.forward(img.Pix, speed, cmd)
	if err != nil {
		return physics.Control{}, err
	}
	steer := pred[0]
	targetSpeed := geom.Clamp(pred[1]*speedNorm, 0, 9)

	errV := targetSpeed - speed
	ctl := physics.Control{Steer: steer}
	if errV >= 0 {
		ctl.Throttle = speedControlGain * errV
	} else {
		ctl.Brake = -speedControlGain * errV
	}
	ctl = ctl.Sanitize()
	// Sanitize maps non-finite to zero; additionally bound steering jitter.
	ctl.Steer = geom.Clamp(ctl.Steer, -1, 1)

	// Anti-inertia creep: imitation agents latch onto "speed ~ 0 implies
	// stay stopped" (Codevilla et al. report the same failure). Unless the
	// network is actively braking, a near-stationary agent creeps forward
	// so the perception loop regains signal.
	if speed < 1.2 && ctl.Brake < 0.4 {
		if ctl.Throttle < 0.5 {
			ctl.Throttle = 0.5
		}
		ctl.Brake = 0
	}
	return ctl, nil
}

// VisitParams walks every parameter tensor with a component-qualified
// name: the ML fault injector's localization hook. Components are visited
// in a fixed order (trunk, meas, then heads in command order).
func (a *Agent) VisitParams(fn func(component string, layer int, name string, t *tensor.Tensor)) {
	a.trunk.VisitParams(func(layer int, name string, t *tensor.Tensor) {
		fn("trunk", layer, name, t)
	})
	a.meas.VisitParams(func(layer int, name string, t *tensor.Tensor) {
		fn("meas", layer, name, t)
	})
	for _, cmd := range commands {
		h := a.heads[cmd]
		h.VisitParams(func(layer int, name string, t *tensor.Tensor) {
			fn("head-"+cmd.String(), layer, name, t)
		})
	}
}

// ParamCount returns the total scalar parameter count.
func (a *Agent) ParamCount() int {
	total := a.trunk.ParamCount() + a.meas.ParamCount()
	for _, h := range a.heads {
		total += h.ParamCount()
	}
	return total
}

// Networks returns the component networks keyed by name, for training and
// serialization.
func (a *Agent) Networks() map[string]*nn.Network {
	out := map[string]*nn.Network{"trunk": a.trunk, "meas": a.meas}
	for _, cmd := range commands {
		out["head-"+cmd.String()] = a.heads[cmd]
	}
	return out
}
