package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/avfi/avfi"
)

// runOpts are one run's command-line choices.
type runOpts struct {
	seed    uint64
	seconds float64
	smoke   bool
	// tmp is where record logs go; everything under it is removed again.
	tmp string
	// nproc is the closed loop's client count: Parallelism concurrent
	// episodes, each worker taking its next only when the last finishes.
	nproc int
	// spans, when set, is the file a traced run dumps its spans to.
	spans string
	// exe is this program, for the modes that run workloads in child
	// processes.
	exe string
}

// metric is one reported measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one run of one workload produced.
type outcome struct {
	workload string
	metrics  []metric
	// attempted counts operations: episodes for campaigns, epochs for
	// train. A failed output check fails every one of them.
	attempted int
	// simFrames, episodes and digest describe the first round, the only
	// one every run of a seed is sure to make: on one commit and seed they
	// repeat exactly.
	simFrames, episodes int
	digest              string
	// notes are the human-readable lines: derived figures and the result
	// of each output check.
	notes []string
	// failures lists the output checks that did not hold.
	failures []string
}

// add reports one metric of the contract (see contract.go), which also
// names its unit.
func (o *outcome) add(name string, v float64) {
	o.metrics = append(o.metrics, metric{name, v, unitOf(name)})
}

// addEndToEnd reports the end-to-end metrics from a run's per-round rates
// and CPU costs, its peak memory, and its set-up timings.
func (o *outcome) addEndToEnd(workPerS, cpuUSPerWork []float64, rssMB float64, setupS []float64) {
	o.add("work_per_s", median(workPerS))
	o.add("cpu_us_per_work", median(cpuUSPerWork))
	o.add("peak_rss_mb", rssMB)
	o.add("setup_s", median(setupS))
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// check records one output check's result.
func (o *outcome) check(name string, err error) {
	if err != nil {
		o.failures = append(o.failures, name+": "+err.Error())
		o.notef("check %s: FAILED: %v", name, err)
		return
	}
	o.notef("check %s: ok", name)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// roundOut is one set-up-and-run of a campaign.
type roundOut struct {
	setup, wall, cpu time.Duration
	rs               *avfi.ResultSet
	// merged is the canonical sorted binary record stream of the run's
	// logs; records is it decoded, frames their simulated frames.
	merged  []byte
	records []avfi.EpisodeRecord
	frames  int
}

// round sets one campaign up, times exactly Runner.Run, and reads its
// record logs back.
func (s *shape) round(cfg avfi.CampaignConfig, tmp string, o rigOpts) (*roundOut, error) {
	t0 := time.Now()
	r, err := s.setup(cfg, tmp, o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", s.name, err)
	}
	out := &roundOut{setup: time.Since(t0)}

	cpu0, t1 := cpuTime(), time.Now()
	out.rs, err = r.runner.Run()
	out.wall, out.cpu = time.Since(t1), cpuTime()-cpu0
	if err == nil {
		out.merged, err = r.merged()
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", s.name, err)
	}
	if out.records, err = avfi.LoadRecords(bytes.NewReader(out.merged)); err != nil {
		return nil, fmt.Errorf("%s: read merged records: %w", s.name, err)
	}
	for _, rec := range out.records {
		out.frames += frameCount(rec)
	}
	return out, nil
}

// sampleSetups times set-up alone (once sets up, returns how long that
// took, and tears down again) enough times for a steady median: at least
// five, and for a set-up of milliseconds as many as fill half a second. A
// smoke run makes do with one.
func sampleSetups(smoke bool, once func() (time.Duration, error)) ([]float64, error) {
	var samples []float64
	total := 0.0
	for len(samples) < 5 || (total < 0.5 && len(samples) < 60) {
		d, err := once()
		if err != nil {
			return nil, err
		}
		samples = append(samples, d.Seconds())
		total += d.Seconds()
		if smoke {
			break
		}
	}
	return samples, nil
}

// keepGoing decides after a round whether another fits: rounds stop when
// the measured time is within half a round of -seconds.
func keepGoing(measured, lastRound, seconds float64) bool {
	return measured+lastRound/2 < seconds
}

// runCampaign measures one campaign workload end to end, tracing off.
func runCampaign(s *shape, o runOpts) (*outcome, error) {
	out := &outcome{workload: s.name}
	setups, err := sampleSetups(o.smoke, func() (time.Duration, error) {
		t0 := time.Now()
		r, err := s.setup(s.config(o.seed, o.smoke), o.tmp, rigOpts{parallelism: o.nproc})
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: setup: %w", s.name, err)
		}
		return d, r.close()
	})
	if err != nil {
		return nil, err
	}

	var rates, cpuPerFrame, epsRates []float64
	var first *roundOut
	baseline := avfi.NewReportBuilder(avfi.NoInject)
	var countErr error
	measured := 0.0
	for k := 0; ; k++ {
		cfg := s.config(roundSeed(o.seed, k), o.smoke)
		r, err := s.round(cfg, o.tmp, rigOpts{parallelism: o.nproc})
		if err != nil {
			return nil, err
		}
		if want := gridSize(cfg); len(r.records) != want && countErr == nil {
			countErr = fmt.Errorf("round %d: %d merged records, want the grid's %d", k, len(r.records), want)
		}
		if k == 0 {
			first = r
		}
		for _, rec := range r.records {
			if rec.Injector == avfi.NoInject {
				baseline.Add(rec)
			}
		}
		out.attempted += len(r.records)
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.frames)/r.wall.Seconds())
		epsRates = append(epsRates, float64(len(r.records))/r.wall.Seconds())
		cpuPerFrame = append(cpuPerFrame, float64(r.cpu.Microseconds())/float64(r.frames))
		measured += r.wall.Seconds()
		if o.smoke || !keepGoing(measured, r.wall.Seconds(), o.seconds) {
			break
		}
	}
	// Read before the output checks so their episodes cannot raise it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.check("merge+count", countErr)

	drop := 3
	if o.smoke {
		drop = 1
	}
	out.check("resume-replay", s.replay(s.config(o.seed, o.smoke), first, drop, o))
	if s.minBaselineKM > 0 {
		rep, floor := baseline.Build(), s.minBaselineKM
		if o.smoke {
			floor = 0 // one fault-free episode is no sample to hold an average to
		}
		var err error
		if rep.Episodes == 0 || rep.TotalKM/float64(rep.Episodes) < floor {
			err = fmt.Errorf("fault-free column drove %.3f km over %d episodes, want >= %.2f km an episode", rep.TotalKM, rep.Episodes, floor)
		}
		out.check("baseline-drives", err)
		out.notef("fault-free column: %.3f km over %d episodes, MSR %.0f%%", rep.TotalKM, rep.Episodes, rep.MSR)
	}

	out.addEndToEnd(rates, cpuPerFrame, rss, setups)
	sum := sha256.Sum256(first.merged)
	out.simFrames, out.episodes, out.digest = first.frames, len(first.records), hex.EncodeToString(sum[:])
	out.notef("unit of work: one simulated frame; %d rounds, %.1f s measured, %d set-ups timed, %d concurrent episodes",
		len(rates), measured, len(setups), o.nproc)
	out.notef("frames_per_s %.1f 1/s   episodes_per_s %.3f 1/s   (medians over rounds)", median(rates), median(epsRates))
	return out, nil
}

// runTrain measures the training workload end to end.
func runTrain(t *trainShape, o runOpts) (*outcome, error) {
	out := &outcome{workload: t.name}
	missions, epochs, minEvalKM := t.missions, t.epochs, t.minEvalKM
	if o.smoke {
		missions, epochs, minEvalKM = t.smokeMissions, t.smokeEpochs, 0
	}
	work := float64(missions * epochs)

	// Generating the world is all the set-up training has.
	newWorld := func() (*avfi.World, time.Duration, error) {
		t0 := time.Now()
		w, err := avfi.NewWorld(avfi.DefaultWorldConfig())
		return w, time.Since(t0), err
	}
	setups, err := sampleSetups(o.smoke, func() (time.Duration, error) {
		_, d, err := newWorld()
		return d, err
	})
	if err != nil {
		return nil, err
	}

	var rates, cpuPerWork, trainS []float64
	var firstAgent *avfi.Agent
	measured := 0.0
	for k := 0; ; k++ {
		// Every round trains on the recipe's own demonstrations (DataSeed
		// stays the default), so the work is the same at every seed; the
		// seed picks the initial weights and the batch order.
		spec := avfi.DefaultPretrainSpec()
		spec.Missions, spec.Train.Epochs = missions, epochs
		spec.Agent.Seed, spec.Train.Seed = roundSeed(o.seed, k), roundSeed(o.seed, k)

		world, d, err := newWorld()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())

		cpu0, t1 := cpuTime(), time.Now()
		a, err := avfi.TrainAgent(world, spec)
		wall, cpu := time.Since(t1).Seconds(), cpuTime()-cpu0
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		if k == 0 {
			firstAgent = a
		}
		out.attempted += epochs
		rates = append(rates, work/wall)
		cpuPerWork = append(cpuPerWork, float64(cpu.Microseconds())/work)
		trainS = append(trainS, wall)
		measured += wall
		if o.smoke || !keepGoing(measured, wall, o.seconds) {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The trained agent must drive: a fault-free evaluation campaign, the
	// one avfi-train runs after training.
	eval := &shape{
		name:  "train-eval",
		world: avfi.DefaultWorldConfig,
		agent: func() (*avfi.Agent, error) { return firstAgent, nil },
		columns: func(cfg *avfi.CampaignConfig, _ bool) {
			cfg.Injectors = injectors(avfi.NoInject)
		},
		missions: t.evalMissions, reps: 1,
		smokeMissions: 1, smokeReps: 1,
		shards: 1,
	}
	cfg := eval.config(o.seed, o.smoke)
	r, err := eval.round(cfg, o.tmp, rigOpts{parallelism: o.nproc})
	if err != nil {
		return nil, err
	}
	var cerr error
	if want := gridSize(cfg); len(r.records) != want {
		cerr = fmt.Errorf("%d merged evaluation records, want %d", len(r.records), want)
	}
	out.check("merge+count", cerr)
	successes, km := 0, 0.0
	for _, rec := range r.records {
		km += rec.DistanceKM
		if rec.Success {
			successes++
		}
	}
	cerr = nil
	if len(r.records) == 0 || km/float64(len(r.records)) < minEvalKM {
		cerr = fmt.Errorf("trained agent drove %.3f km over %d fault-free missions, want >= %.2f km a mission", km, len(r.records), minEvalKM)
	}
	out.check("trained-agent-drives", cerr)

	out.addEndToEnd(rates, cpuPerWork, rss, setups)
	sum := sha256.Sum256(r.merged)
	out.simFrames, out.episodes, out.digest = r.frames, len(r.records), hex.EncodeToString(sum[:])
	out.notef("unit of work: one demonstration mission trained for one epoch (%d missions x %d epochs per round); %d rounds, %.1f s measured",
		missions, epochs, len(rates), measured)
	out.notef("train_s %.3f s (median over rounds); evaluation: %.3f km driven, %d of %d fault-free missions completed",
		median(trainS), km, successes, len(r.records))
	return out, nil
}
