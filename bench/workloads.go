package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/avfi/avfi"
)

// shape is one campaign workload: what runs, on which pool, into which
// record logs. The grid fields size one measured round; a run repeats
// rounds (each on its own derived seed) until -seconds is used up.
type shape struct {
	name string
	// why records the reason the workload is in the benchmark (it is also
	// the text BENCHMARK.json carries).
	why   string
	world func() avfi.WorldConfig
	agent func() (*avfi.Agent, error)
	// columns sets the campaign's columns and episode conditions; smoke
	// asks for the shrunken set the test suite runs.
	columns func(cfg *avfi.CampaignConfig, smoke bool)

	missions, reps           int
	smokeMissions, smokeReps int

	// workers is how many loopback SimWorkers the campaign dials through
	// PoolConfig.Backends; 0 runs the one in-process pipe engine.
	workers int
	// shards is how many binary record logs the campaign streams into:
	// one is CampaignConfig.Sink, more are ShardSinks.
	shards  int
	discard bool

	// traceSlots is how many episodes the traced passes replay per 20 s of
	// -seconds: sized so one serial pass takes about a quarter of the run.
	traceSlots int
	// minBaselineKM, when positive, is how far the fault-free column's
	// episodes must drive on average (see minDriveKM).
	minBaselineKM float64
}

// trainShape is the training workload: avfi.TrainAgent on the default
// world with the default recipe cut down to missions x epochs.
type trainShape struct {
	name, why                  string
	missions, epochs           int
	smokeMissions, smokeEpochs int
	// evalMissions fault-free missions check that the trained agent
	// drives: minEvalKM per mission on average (see minDriveKM). Nothing is
	// asked of a smoke run, whose recipe is too small to learn from.
	evalMissions int
	minEvalKM    float64
}

// minDriveKM is the sanity floor on a driving agent: kilometres per
// fault-free episode, averaged over a run's few. It separates a network
// that works from one silently broken by a bad model load or forward pass
// without depending on mission success, which is a coin too few episodes
// flip: the committed agent fails one fault-free mission in ten (and still
// drives 0.29-0.68 km on those; 0.18 km is its shortest of 60), the
// cut-down training recipe completes one to four missions of four (0.22 km
// a mission at worst of 20 runs), while an untrained network creeps 0.05 km
// before it wedges itself against a wall (0.01-0.11 km over 16 missions).
const minDriveKM = 0.12

func tinyWorld() avfi.WorldConfig {
	cfg := avfi.DefaultWorldConfig()
	cfg.Town.GridW, cfg.Town.GridH = 3, 3
	cfg.Camera.Width, cfg.Camera.Height = 16, 12
	return cfg
}

// tinyAgent is the test suite's untrained seeded agent for the tiny camera.
func tinyAgent() (*avfi.Agent, error) {
	return avfi.NewAgent(avfi.AgentConfig{
		ImageW: 16, ImageH: 12, Conv1: 4, Conv2: 4,
		FeatDim: 8, MeasDim: 4, HeadHidden: 8, Seed: 11,
	})
}

func injectors(names ...string) []avfi.InjectorSource {
	out := make([]avfi.InjectorSource, len(names))
	for i, n := range names {
		out[i] = avfi.Injector(n)
	}
	return out
}

var figSweep = &shape{
	name: "fig-sweep",
	why: "default CLI shape (paper Fig. 2-4): 64x48 world, pretrained agent, flat grid, one in-process pipe engine; " +
		"render and agent forward do nearly all the work, the wire almost none",
	world: avfi.DefaultWorldConfig,
	agent: loadDefaultAgent,
	columns: func(cfg *avfi.CampaignConfig, smoke bool) {
		cfg.Injectors = append(avfi.InputFaultSuite(), avfi.DelaySweep([]int{10})...)
		if smoke {
			cfg.Injectors = cfg.Injectors[:2]
		}
	},
	// Two repetitions of a mission sit next to each other in the job order
	// and run about equally long, so the workers stay in step and the last
	// ones finish together: little end-of-campaign idle time to vary by seed.
	missions: 2, reps: 2,
	smokeMissions: 1, smokeReps: 1,
	shards:        1,
	traceSlots:    3,
	minBaselineKM: minDriveKM,
}

var matrixDense = &shape{
	name: "matrix-dense",
	why: "taxonomy matrix in rain and fog with traffic and AEB, two TCP workers, sharded logs: actors, lidar, every " +
		"fault family, delta codec; a gain special-cased to the empty clear world shows none here",
	world: avfi.DefaultWorldConfig,
	agent: loadDefaultAgent,
	columns: func(cfg *avfi.CampaignConfig, smoke bool) {
		m := &avfi.ScenarioMatrix{
			Weathers:         []avfi.Weather{avfi.WeatherRain, avfi.WeatherFog},
			Densities:        []avfi.Density{{NPCs: 8, Pedestrians: 4}},
			AEB:              []bool{true},
			ActivationFrames: []int{30},
			Injectors:        avfi.FaultTaxonomySuite(),
		}
		if smoke {
			m.Weathers = m.Weathers[:1]
			m.Injectors = m.Injectors[:2]
		}
		cfg.Matrix = m
	},
	missions: 1, reps: 1,
	smokeMissions: 1, smokeReps: 1,
	workers:    2,
	shards:     2,
	discard:    true,
	traceSlots: 2,
}

var tinyFleet = &shape{
	name: "tiny-fleet",
	why: "toy 16x12 world and tiny agent, all sessions on one TCP connection: ~15x less compute per frame, so protocol, " +
		"transport, demux and scheduling dominate; agent or renderer work should not move it",
	world: tinyWorld,
	agent: tinyAgent,
	columns: func(cfg *avfi.CampaignConfig, smoke bool) {
		cfg.Injectors = injectors(avfi.NoInject, "gaussian", "outputdelay", "gpsdrift")
	},
	missions: 10, reps: 2,
	smokeMissions: 2, smokeReps: 1,
	workers:    1,
	shards:     1,
	discard:    true,
	traceSlots: 24,
}

var train = &trainShape{
	name: "train",
	why: "avfi.TrainAgent, default recipe cut down: demonstration collection (render+sim, no wire) then nn forward and " +
		"backward; an inference or renderer change that slows or breaks training shows here",
	missions: 3, epochs: 3,
	smokeMissions: 1, smokeEpochs: 1,
	evalMissions: 4, minEvalKM: minDriveKM,
}

var campaignShapes = []*shape{figSweep, matrixDense, tinyFleet}

// workloadNames lists every workload in the order -workload all runs them.
func workloadNames() []string {
	var out []string
	for _, s := range campaignShapes {
		out = append(out, s.name)
	}
	return append(out, train.name)
}

// config is the campaign one round runs, short of its agent, pool and
// sinks (see setup).
func (s *shape) config(seed uint64, smoke bool) avfi.CampaignConfig {
	cfg := avfi.CampaignConfig{
		World:          s.world(),
		Missions:       s.missions,
		Repetitions:    s.reps,
		DiscardRecords: s.discard,
		Seed:           seed,
	}
	if smoke {
		cfg.Missions, cfg.Repetitions = s.smokeMissions, s.smokeReps
	}
	s.columns(&cfg, smoke)
	return cfg
}

// cell is one scenario column resolved to what an episode of it needs.
type cell struct {
	key        string
	src        avfi.InjectorSource
	weather    avfi.Weather
	npcs, peds int
	aeb        bool
}

// cellsOf resolves a campaign's columns the way NewCampaign does: matrix
// cells keyed by their label, flat columns by the injector name.
func cellsOf(cfg avfi.CampaignConfig) []cell {
	var out []cell
	if cfg.Matrix != nil {
		for _, c := range cfg.Matrix.Cells() {
			out = append(out, cell{key: c.Label(), src: c.Injector, weather: c.Weather,
				npcs: c.Density.NPCs, peds: c.Density.Pedestrians, aeb: c.AEB})
		}
		return out
	}
	for _, src := range cfg.Injectors {
		out = append(out, cell{key: src.Name, src: src, weather: cfg.Weather,
			npcs: cfg.NumNPCs, peds: cfg.NumPedestrians, aeb: cfg.EnableAEB})
	}
	return out
}

func gridSize(cfg avfi.CampaignConfig) int {
	return len(cellsOf(cfg)) * cfg.Missions * cfg.Repetitions
}

// roundSeed derives round k's campaign seed from the run's -seed: rounds
// sample different missions, so one run averages over end-of-campaign
// idle time instead of repeating one campaign's.
func roundSeed(seed uint64, k int) uint64 {
	return seed + uint64(k)*0x9E3779B97F4A7C15
}

// frameCount recovers an episode's simulated frames from its duration (the
// record carries seconds on the fixed avfi.FPS clock).
func frameCount(rec avfi.EpisodeRecord) int {
	return int(math.Round(rec.DurationSec * avfi.FPS))
}

// sliceSource streams records already in memory into ResumeFrom.
type sliceSource struct {
	recs []avfi.EpisodeRecord
}

func (s *sliceSource) Read() (avfi.EpisodeRecord, error) {
	if len(s.recs) == 0 {
		return avfi.EpisodeRecord{}, io.EOF
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// rig is one set-up campaign: its runner, the loopback workers it dials
// and the record logs it streams into, all under one scratch directory.
type rig struct {
	runner  *avfi.Runner
	workers []*avfi.SimWorker
	served  chan error
	logs    []*os.File
	dir     string
}

// rigOpts are the per-run choices on top of a shape.
type rigOpts struct {
	parallelism int
	// local swaps the shape's pool and logs for one in-process pipe engine
	// and one log: the shape the resume replay pins results against.
	local  bool
	resume avfi.RecordSource
}

// setup does everything a user does before Runner.Run: load the agent,
// start and listen the workers (each generates its own world, as a worker
// process would), open the record logs, and build the campaign.
func (s *shape) setup(cfg avfi.CampaignConfig, tmp string, o rigOpts) (_ *rig, err error) {
	dir, err := os.MkdirTemp(tmp, s.name+"-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	a, err := s.agent()
	if err != nil {
		return nil, err
	}
	cfg.Agent = avfi.AgentSource{Agent: a}
	cfg.Parallelism = o.parallelism
	cfg.ResumeFrom = o.resume

	workers, shards := s.workers, s.shards
	if o.local {
		workers, shards = 0, 1
	}
	r.served = make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := avfi.NewWorld(cfg.World)
		if err != nil {
			return nil, err
		}
		wk := avfi.NewSimWorker(w)
		addr, err := wk.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.workers = append(r.workers, wk)
		go func() { r.served <- wk.Serve() }()
		cfg.Pool.Backends = append(cfg.Pool.Backends, addr)
	}
	var sinks []avfi.RecordSink
	for i := 0; i < shards; i++ {
		f, err := os.Create(filepath.Join(dir, avfi.BinaryShardLogName(i)))
		if err != nil {
			return nil, err
		}
		r.logs = append(r.logs, f)
		sinks = append(sinks, avfi.NewBinarySink(f))
	}
	if shards == 1 {
		cfg.Sink = sinks[0]
	} else {
		cfg.ShardSinks = sinks
	}
	r.runner, err = avfi.NewCampaign(cfg)
	return r, err
}

// merged reads the rig's record logs back and merges them into the
// canonical sorted binary stream.
func (r *rig) merged() ([]byte, error) {
	var sources []io.Reader
	for _, f := range r.logs {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			return nil, err
		}
		sources = append(sources, bytes.NewReader(b))
	}
	var out bytes.Buffer
	_, err := avfi.MergeRecords(&out, avfi.FormatBinary, sources...)
	return out.Bytes(), err
}

// close stops the workers, waits for their Serve loops, and removes the
// scratch directory.
func (r *rig) close() error {
	var errs []error
	for _, wk := range r.workers {
		errs = append(errs, wk.Close())
	}
	for range r.workers {
		errs = append(errs, <-r.served)
	}
	for _, f := range r.logs {
		errs = append(errs, f.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}

// encodeRecords writes records through the binary sink, as a campaign would.
func encodeRecords(recs []avfi.EpisodeRecord) ([]byte, error) {
	var buf bytes.Buffer
	sink := avfi.NewBinarySink(&buf)
	for _, rec := range recs {
		if err := sink.Consume(rec); err != nil {
			return nil, fmt.Errorf("encode record: %w", err)
		}
	}
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("encode records: %w", err)
	}
	return buf.Bytes(), nil
}
