package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/avfi/avfi"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/fault/hwfault"
	"github.com/avfi/avfi/internal/fault/imagefault"
	"github.com/avfi/avfi/internal/fault/mlfault"
	"github.com/avfi/avfi/internal/fault/sensorfault"
)

// sweeps are ablate's injector parameter sweeps, in run order; "aeb"
// (aebAblation) and "all" complete the -sweep values.
var sweeps = []struct {
	name    string
	columns func() []avfi.InjectorSource
}{
	{"gaussian", gaussianSweep},
	{"saltpepper", saltPepperSweep},
	{"weightnoise", weightNoiseSweep},
	{"hardware", hardwareComparison},
}

// ablate is `avfi ablate`: parameter sweeps beyond the paper's figures
// that place its operating points on full degradation curves — MSR/VPK vs
// camera noise sigma, pixel corruption probability and ML weight noise,
// stuck-at vs transient control faults, and the fault suite with and
// without the AEB safety monitor.
func ablate(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("ablate", stderr)
	var (
		sweep     = fs.String("sweep", "all", "gaussian|saltpepper|weightnoise|hardware|aeb|all")
		missions  = fs.Int("missions", 6, "missions per point")
		reps      = fs.Int("reps", 2, "repetitions per mission")
		seed      = fs.Uint64("seed", 20180625, "campaign seed")
		agentPath = fs.String("agent", "", "load a trained agent (default: train in-process)")
	)
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
	valid := []string{"all", "aeb"}
	for _, s := range sweeps {
		valid = append(valid, s.name)
	}
	if !slices.Contains(valid, *sweep) {
		return fmt.Errorf("-sweep %q: want one of %s", *sweep, strings.Join(valid, ", "))
	}

	base, err := baseConfig(*agentPath, *missions, *reps, *seed)
	if err != nil {
		return err
	}
	for _, s := range sweeps {
		if *sweep != "all" && *sweep != s.name {
			continue
		}
		cfg := base
		cfg.Injectors = s.columns()
		rs, err := runSuite(cfg, stderr)
		if err != nil {
			return err
		}
		avfi.PrintTable(stdout, fmt.Sprintf("\nAblation: %s", s.name), rs.Reports)
	}
	if *sweep == "all" || *sweep == "aeb" {
		return aebAblation(base, stdout, stderr)
	}
	return nil
}

// aebAblation contrasts the same fault suite with and without the
// emergency-braking safety monitor, including the LIDAR faults that attack
// the monitor itself.
func aebAblation(base avfi.CampaignConfig, stdout, stderr io.Writer) error {
	injectors := []avfi.InjectorSource{
		avfi.Injector(avfi.NoInject),
		avfi.Injector("solidocc"),
		avfi.Injector("gaussian"),
		{
			// Camera occlusion and LIDAR dropout together: the fault pair
			// that blinds both the agent and its safety monitor.
			Name: "solidocc+lidardrop",
			New: func() interface{} {
				return fault.NewChain("solidocc+lidardrop",
					imagefault.NewSolidOcclusion(), sensorfault.NewLidarDropout())
			},
		},
		avfi.Injector(sensorfault.LidarGhostName),
	}
	for _, enabled := range []bool{false, true} {
		cfg := base
		cfg.Injectors = injectors
		cfg.EnableAEB = enabled
		cfg.NumNPCs = 4
		cfg.NumPedestrians = 4
		rs, err := runSuite(cfg, stderr)
		if err != nil {
			return err
		}
		avfi.PrintTable(stdout, fmt.Sprintf("\nAblation: AEB enabled=%v (4 NPCs, 4 pedestrians)", enabled), rs.Reports)
	}
	return nil
}

// paramSweep is the fault-free baseline plus one column per value, each
// named by nameFmt and built by build.
func paramSweep(nameFmt string, values []float64, build func(v float64) interface{}) []avfi.InjectorSource {
	out := []avfi.InjectorSource{avfi.Injector(avfi.NoInject)}
	for _, v := range values {
		out = append(out, avfi.InjectorSource{
			Name: fmt.Sprintf(nameFmt, v),
			New:  func() interface{} { return build(v) },
		})
	}
	return out
}

// gaussianSweep sweeps the camera noise sigma around the default 0.28.
func gaussianSweep() []avfi.InjectorSource {
	return paramSweep("gauss-%.2f", []float64{0.10, 0.20, 0.28, 0.40, 0.50}, func(sigma float64) interface{} {
		g := imagefault.NewGaussian()
		g.Sigma = sigma
		return g
	})
}

// saltPepperSweep sweeps the pixel corruption probability.
func saltPepperSweep() []avfi.InjectorSource {
	return paramSweep("sp-%.2f", []float64{0.05, 0.10, 0.20, 0.35, 0.50}, func(p float64) interface{} {
		s := imagefault.NewSaltPepper()
		s.Prob = p
		return s
	})
}

// weightNoiseSweep sweeps Gaussian weight noise relative to each tensor's
// RMS magnitude.
func weightNoiseSweep() []avfi.InjectorSource {
	return paramSweep("wnoise-%.1f", []float64{0.1, 0.2, 0.5, 1.0, 2.0}, func(sigma float64) interface{} {
		w := mlfault.NewWeightNoise()
		w.Sigma = sigma
		return w
	})
}

// hardwareComparison contrasts transient control bit flips against
// permanent stuck-at steering, plus frame-buffer corruption.
func hardwareComparison() []avfi.InjectorSource {
	return []avfi.InjectorSource{
		avfi.Injector(avfi.NoInject),
		avfi.Injector(hwfault.ControlBitFlipName),
		{
			Name: "ctrlbitflip-3b",
			New: func() interface{} {
				c := hwfault.NewControlBitFlip()
				c.Bits = 3
				return c
			},
		},
		avfi.Injector(hwfault.ControlStuckName),
		{
			Name: "stuck-fulllock",
			New: func() interface{} {
				return &hwfault.ControlStuck{Field: hwfault.StuckSteer, Value: 1.0}
			},
		},
		avfi.Injector(hwfault.PixelBitFlipName),
	}
}
