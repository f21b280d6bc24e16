package agent

import (
	"fmt"

	"github.com/avfi/avfi/internal/nn"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// TrainConfig tunes imitation-learning optimization.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// SteerWeight and SpeedWeight balance the two-task loss.
	SteerWeight float64
	SpeedWeight float64
	// SpeedDropout zeroes the speed input with this probability during
	// training, weakening the speed->target-speed shortcut behind the IL
	// inertia problem.
	SpeedDropout float64
	// BalanceCommands oversamples junction (left/right/straight) samples
	// so the turn heads see as much data as the follow head.
	BalanceCommands bool
	// Seed shuffles batches deterministically.
	Seed uint64
}

// DefaultTrainConfig returns the optimization setup for the pretrained
// experiment agent.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:          7,
		BatchSize:       16,
		LR:              1e-3,
		SteerWeight:     1.0,
		SpeedWeight:     0.4,
		SpeedDropout:    0.1,
		BalanceCommands: true,
		Seed:            7,
	}
}

// Train fits the agent to the demonstrations and returns the mean training
// loss per epoch.
func (a *Agent) Train(data []Sample, tc TrainConfig) ([]float64, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("agent: empty training set")
	}
	if tc.Epochs <= 0 || tc.BatchSize <= 0 || tc.LR <= 0 {
		return nil, fmt.Errorf("agent: bad train config %+v", tc)
	}
	if tc.SteerWeight <= 0 {
		tc.SteerWeight = 1
	}
	if tc.SpeedWeight <= 0 {
		tc.SpeedWeight = 0.4
	}

	opt := nn.NewAdam(tc.LR)
	params := a.allParams()
	r := rng.New(tc.Seed)
	order := trainingOrder(data, tc.BalanceCommands)

	history := make([]float64, 0, tc.Epochs)
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		inBatch := 0
		a.zeroGrads()
		for _, idx := range order {
			s := data[idx]
			if tc.SpeedDropout > 0 && r.Bool(tc.SpeedDropout) {
				s.Speed = 0
			}
			loss, err := a.accumulate(s, tc)
			if err != nil {
				return nil, err
			}
			epochLoss += loss
			inBatch++
			if inBatch == tc.BatchSize {
				scaleGrads(params, 1/float64(inBatch))
				opt.Step(params)
				a.zeroGrads()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			scaleGrads(params, 1/float64(inBatch))
			opt.Step(params)
			a.zeroGrads()
		}
		history = append(history, epochLoss/float64(len(order)))
	}
	return history, nil
}

// trainingOrder builds the index sequence for one epoch. With balancing,
// junction samples are replicated until they roughly match the follow-lane
// share (capped at 4x so a single turn isn't memorized).
func trainingOrder(data []Sample, balance bool) []int {
	order := make([]int, 0, len(data))
	for i := range data {
		order = append(order, i)
	}
	if !balance {
		return order
	}
	follow, turns := 0, 0
	for _, s := range data {
		if s.Command == world.TurnFollow {
			follow++
		} else {
			turns++
		}
	}
	if turns == 0 || follow == 0 {
		return order
	}
	extra := follow/turns - 1
	if extra > 3 {
		extra = 3
	}
	for rep := 0; rep < extra; rep++ {
		for i, s := range data {
			if s.Command != world.TurnFollow {
				order = append(order, i)
			}
		}
	}
	return order
}

// forwardSample runs one training sample through the network from a clean
// recurrent state (single-frame training) and returns its weighted loss with
// the two prediction errors.
func (a *Agent) forwardSample(s Sample, tc TrainConfig) (loss, dSteer, dSpeed float64, err error) {
	if !s.Image.SameShape(a.in) {
		return 0, 0, 0, fmt.Errorf("agent: sample image %v, want %v", s.Image.Shape(), a.in.Shape())
	}
	a.Reset()
	pred, err := a.forward(s.Image.Data(), s.Speed, s.Command)
	if err != nil {
		return 0, 0, 0, err
	}
	dSteer = pred[0] - s.Steer
	dSpeed = pred[1] - s.TargetSpeed/speedNorm
	return tc.SteerWeight*dSteer*dSteer + tc.SpeedWeight*dSpeed*dSpeed, dSteer, dSpeed, nil
}

// accumulate runs one sample forward/backward, adding gradients.
func (a *Agent) accumulate(s Sample, tc TrainConfig) (float64, error) {
	loss, dSteer, dSpeed, err := a.forwardSample(s, tc)
	if err != nil {
		return 0, err
	}
	if a.dPred == nil {
		a.dPred = tensor.New(2)
		a.df = tensor.New(a.z.Len() - a.cfg.MeasDim)
		a.dm = tensor.New(a.cfg.MeasDim)
	}
	a.dPred.Data()[0] = 2 * tc.SteerWeight * dSteer
	a.dPred.Data()[1] = 2 * tc.SpeedWeight * dSpeed

	dz, err := a.head(s.Command).Backward(a.dPred)
	if err != nil {
		return 0, err
	}
	// Split the concat gradient back into trunk and measurement parts.
	nf := a.df.Len()
	copy(a.df.Data(), dz.Data()[:nf])
	copy(a.dm.Data(), dz.Data()[nf:])

	if _, err := a.trunk.Backward(a.df); err != nil {
		return 0, err
	}
	if _, err := a.meas.Backward(a.dm); err != nil {
		return 0, err
	}
	return loss, nil
}

// allParams collects every component's parameters once.
func (a *Agent) allParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, a.trunk.Params()...)
	ps = append(ps, a.meas.Params()...)
	for _, cmd := range commands {
		ps = append(ps, a.heads[cmd].Params()...)
	}
	return ps
}

func (a *Agent) zeroGrads() {
	a.trunk.ZeroGrad()
	a.meas.ZeroGrad()
	for _, h := range a.heads {
		h.ZeroGrad()
	}
}

func scaleGrads(params []*nn.Param, s float64) {
	for _, p := range params {
		p.Grad.ScaleInPlace(s)
	}
}

// EvalLoss measures the weighted loss over a dataset without training.
func (a *Agent) EvalLoss(data []Sample, tc TrainConfig) (float64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("agent: empty eval set")
	}
	var total float64
	for _, s := range data {
		loss, _, _, err := a.forwardSample(s, tc)
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(len(data)), nil
}
