package agent

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// goldenDataset is a small fixed imitation set: random pixels with about a
// fifth exact zeros, mostly follow commands, a few zero speeds.
func goldenDataset(cfg Config) []Sample {
	r := rng.New(2024)
	data := make([]Sample, 24)
	for i := range data {
		im := tensor.New(3, cfg.ImageH, cfg.ImageW)
		for j := range im.Data() {
			if !r.Bool(0.2) {
				im.Data()[j] = r.Float64()
			}
		}
		speed := r.Range(0, 9)
		if i%7 == 0 {
			speed = 0
		}
		cmd := world.TurnFollow // most samples, so BalanceCommands replicates the rest
		if r.Bool(0.3) {
			cmd = commands[1+r.Intn(len(commands)-1)]
		}
		data[i] = Sample{
			Image: im, Speed: speed, Command: cmd,
			Steer: r.Range(-1, 1), TargetSpeed: r.Range(0, 9),
		}
	}
	return data
}

// paramsSHA256 hashes every parameter's bits in VisitParams order.
func paramsSHA256(a *Agent) string {
	h := sha256.New()
	var buf [8]byte
	a.VisitParams(func(_ string, _ int, _ string, v *tensor.Tensor) {
		for _, x := range v.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGoldenWeights pins training numerics bit for bit: forward,
// backward, gradient accumulation order and the optimizer. The constants
// were captured at the commit before the allocating im2col+matmul layers
// were replaced, so a pass means the rewrite trains to the same weights.
func TestTrainGoldenWeights(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "default-shape",
			cfg:  Config{ImageW: 16, ImageH: 12, Conv1: 8, Conv2: 12, FeatDim: 16, MeasDim: 4, HeadHidden: 8, Seed: 5},
			want: "aa31544355111e93e206db1a10db4c3ec245197e4d33a5285efdafca4cc1ecd6",
		},
		{
			name: "odd-channels",
			cfg:  Config{ImageW: 18, ImageH: 10, Conv1: 5, Conv2: 13, FeatDim: 12, MeasDim: 3, HeadHidden: 7, Seed: 6},
			want: "8eea8dbe6b7b47b396a79d7f08118a9d392e185d5f591360a53bf94fe920d440",
		},
	}
	tc := TrainConfig{Epochs: 2, BatchSize: 5, LR: 1e-3, SteerWeight: 1, SpeedWeight: 0.4, SpeedDropout: 0.1, BalanceCommands: true, Seed: 9}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := a.Train(goldenDataset(c.cfg), tc)
			if err != nil {
				t.Fatal(err)
			}
			if got := paramsSHA256(a); got != c.want {
				t.Errorf("trained weights hash %s, want %s (loss history %v)", got, c.want, hist)
			}
		})
	}
}
