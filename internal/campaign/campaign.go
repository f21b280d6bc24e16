// Package campaign orchestrates AVFI fault-injection campaigns on a
// sharded pool of persistent, session-multiplexed simulation engines: each
// engine is one simserver.Server and one simclient.Client sharing a single
// transport.Conn for the whole campaign, and a worker pool opens episodes
// as protocol sessions on the least-loaded engine — episode dispatch is
// O(1) in connections and throughput shards across PoolConfig.Engines
// backends, the shape million-episode resilience sweeps need. Finished
// episodes stream through a results pipeline (incremental per-cell
// aggregation plus an optional RecordSink), so a campaign can shrink
// per-episode retention to a small fixed-size statistics digest instead of
// full records (Config.DiscardRecords).
//
// Scenarios come from either the classic flat grid (injectors x missions x
// repetitions) or a ScenarioMatrix crossing weather, traffic density, AEB
// and windowed fault activation with the injector columns. Either way a
// campaign is a pure function of its configuration: missions, episode seeds
// and injector randomness all derive from Config.Seed, so every figure in
// EXPERIMENTS.md regenerates bit-identically — at any pool size, in-process
// or on remote workers, with or without streaming.
package campaign

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/safety"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/simserver"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/world"
)

// InjectorSource names and constructs one injector column of a campaign.
type InjectorSource struct {
	// Name labels the column in reports.
	Name string
	// New builds a fresh (stateful) instance per episode. When nil, Name
	// is resolved through the fault registry.
	New func() interface{}
	// InjectionFrame is when the fault activates (frames); 0 means the
	// fault is active from episode start. Used for TTV accounting.
	InjectionFrame int

	// err is a resolution failure Windowed found; Validate reports it.
	err error
}

// Registry resolves a registered injector name into a source.
func Registry(name string) InjectorSource { return InjectorSource{Name: name} }

// Config parameterizes a campaign.
type Config struct {
	// World selects the town and camera.
	World sim.WorldConfig
	// Agent provides the system under test.
	Agent AgentSource
	// Injectors are the campaign columns (include fault.NoopName for the
	// baseline bar). Mutually exclusive with Matrix.
	Injectors []InjectorSource
	// Matrix, when set, replaces the flat injector sweep with a scenario
	// matrix crossing weather, density, AEB and activation frames with the
	// injector columns. The per-episode Weather/NumNPCs/NumPedestrians/
	// EnableAEB fields below are ignored in favor of each cell's values.
	Matrix *ScenarioMatrix
	// Missions is the number of distinct navigation scenarios.
	Missions int
	// Repetitions is how many seeds run per (mission, injector).
	Repetitions int
	// NumNPCs and NumPedestrians populate each episode.
	NumNPCs        int
	NumPedestrians int
	// Weather applies to every episode.
	Weather world.Weather
	// EnableAEB installs the independent emergency-braking safety monitor
	// in every episode's client stack.
	EnableAEB bool
	// Parallelism bounds concurrent episodes (0 = NumCPU).
	Parallelism int
	// Pool shards the campaign across persistent engines and bounds
	// per-episode retry after transient failures; the zero value runs the
	// classic single engine with no retries.
	Pool PoolConfig
	// Sink, when non-nil, receives every episode record as it completes
	// (completion order, from a single aggregation goroutine). Combine with
	// DiscardRecords for campaigns too large to retain in memory; see
	// NewBinarySink.
	Sink RecordSink
	// ShardSinks, when non-empty, shards the streaming results pipeline:
	// one aggregation goroutine and one RecordSink per entry, with scenario
	// cells routed to shards round-robin in cell order. Each shard streams
	// a disjoint slice of the campaign to its own sink (typically one binary
	// log per engine — see cmd/avfi's -stream-records directory mode), so
	// the single aggregation goroutine stops being the throughput ceiling;
	// MergeRecords reassembles the canonical single log. Mutually
	// exclusive with Sink. Each sink sees only its own shard's records, in
	// that shard's completion order.
	ShardSinks []RecordSink
	// Progress, when non-nil, is called after each episode is folded into
	// its cell's aggregate, with the cell's running aggregate: episodes so
	// far, the Welford running VPK mean/stddev and the violation tallies —
	// the live per-cell signal adaptive sampling hooks into. Called from
	// the cell's aggregation goroutine: one cell's updates are ordered, but
	// with ShardSinks different cells' shards call concurrently, so the
	// hook must be safe for concurrent use. Keep it fast. Episodes seeded
	// via ResumeFrom do not fire it.
	Progress func(CellProgress)
	// ResumeFrom seeds the campaign with episodes recorded by a prior
	// partial run. Their (cell, mission, repetition) slots are not
	// re-dispatched; their records are folded into reports — and retained,
	// unless DiscardRecords — but not re-sent to Sink, and adaptive
	// posteriors start from them. Records for columns or slots outside this
	// campaign's grid are ignored; duplicate slots keep the first record.
	// The records are read one at a time (typically from OpenRecordsPath
	// over a log file or shard directory), so with DiscardRecords resume
	// memory is O(1) in campaign size — the skip set tracks only slot keys,
	// never records. The first Run drains the source before dispatching: a
	// second Run of the same Runner finds it empty and resumes nothing. The
	// caller still owns any underlying files (see RecordStream.Close).
	ResumeFrom RecordSource
	// SlowEpisode, when positive, is the wall-clock duration above which a
	// finished episode is logged as a warning (with its cell, mission,
	// repetition and engine) through the telemetry logger — the first place
	// to look when a campaign's throughput sags. 0 disables the warning.
	SlowEpisode time.Duration
	// DiscardRecords drops records after streaming aggregation:
	// ResultSet.Records stays nil, and instead of full EpisodeRecords
	// (violation lists and label strings) the campaign retains only each
	// episode's fixed-size statistics digest — the ~64 bytes per episode
	// the reports' exact quantiles require. Reports are built incrementally
	// and match the retained path exactly.
	DiscardRecords bool
	// Seed drives all campaign randomness.
	Seed uint64

	// fleet, when set, runs the campaign on a Service's shared engine pool
	// instead of starting (and tearing down) its own: dispatch is gated
	// round-robin across the fleet's active campaigns (see fairGate), and
	// the pool outlives this campaign. Set only by Service.Submit.
	fleet *sharedFleet
	// fleetID labels this campaign's dispatches at the fleet's fairness
	// gate (and its per-campaign telemetry series).
	fleetID string

	// testFactoryWrap, when set (tests only), wraps each engine's episode
	// factory — the hook fault-tolerance tests use to inject transient
	// backend failures.
	testFactoryWrap func(simserver.EpisodeFactory) simserver.EpisodeFactory
	// testRunEpisode, when set (tests only), replaces episode execution
	// entirely — the hook adaptive-allocation tests use to give scenario
	// cells exactly known risk profiles without running the simulator.
	testRunEpisode func(*engine, job) (metrics.EpisodeRecord, error)
}

// CellProgress is one cell's running aggregate, delivered to
// Config.Progress after each episode is folded in.
type CellProgress struct {
	// Cell is the scenario column label.
	Cell string
	// Episodes is how many of the cell's episodes have been aggregated.
	Episodes int
	// MeanVPK and StdVPK are the Welford running per-episode VPK stats.
	MeanVPK float64
	StdVPK  float64
	// Violations is the cell's total violation count so far.
	Violations int
	// ViolationEpisodes is how many episodes had at least one violation.
	ViolationEpisodes int
}

// ViolationRate is the fraction of aggregated episodes with at least one
// violation — the risk signal adaptive policies allocate by.
func (p CellProgress) ViolationRate() float64 {
	if p.Episodes == 0 {
		return 0
	}
	return float64(p.ViolationEpisodes) / float64(p.Episodes)
}

// AgentSource supplies the driving agent: either a ready instance or a
// pretraining recipe (resolved through the process-wide cache).
type AgentSource struct {
	Agent    *agent.Agent
	Pretrain *agent.PretrainSpec
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.validateSpec(); err != nil {
		return err
	}
	if c.Pool.Engines < 0 {
		return fmt.Errorf("campaign: pool engines=%d must be non-negative", c.Pool.Engines)
	}
	for i, addr := range c.Pool.Backends {
		if strings.TrimSpace(addr) == "" {
			return fmt.Errorf("campaign: pool backend %d is empty", i)
		}
	}
	if c.Sink != nil && len(c.ShardSinks) > 0 {
		return fmt.Errorf("campaign: Sink and ShardSinks are mutually exclusive")
	}
	for i, s := range c.ShardSinks {
		if s == nil {
			return fmt.Errorf("campaign: shard sink %d is nil", i)
		}
	}
	if c.Agent.Agent == nil && c.Agent.Pretrain == nil {
		return fmt.Errorf("campaign: no agent source")
	}
	return nil
}

// validateSpec checks the fields a CampaignSpec sets, so that Lower
// refuses every spec whose own fields Validate would refuse.
func (c Config) validateSpec() error {
	sources := c.Injectors
	if c.Matrix != nil {
		if len(c.Injectors) != 0 {
			return fmt.Errorf("campaign: Matrix and Injectors are mutually exclusive")
		}
		if err := c.Matrix.Validate(); err != nil {
			return err
		}
		sources = c.Matrix.Injectors
	} else if len(c.Injectors) == 0 {
		return fmt.Errorf("campaign: no injectors")
	} else if err := checkWire(c.Weather, Density{NPCs: c.NumNPCs, Pedestrians: c.NumPedestrians}); err != nil {
		return err
	}
	if c.Missions <= 0 || c.Repetitions <= 0 {
		return fmt.Errorf("campaign: missions=%d repetitions=%d must be positive", c.Missions, c.Repetitions)
	}
	if c.Pool.MaxRetries < 0 {
		return fmt.Errorf("campaign: pool retries=%d must be non-negative", c.Pool.MaxRetries)
	}
	for i, src := range sources {
		if src.Name == "" {
			return fmt.Errorf("campaign: injector %d has no name", i)
		}
		if _, err := factory(src); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// EngineStats describes one persistent engine's work for a campaign run.
// For pooled campaigns, ResultSet.Engine carries the pool aggregate
// (episodes summed, concurrency high-water maxed) and ResultSet.Pool the
// per-engine breakdown.
type EngineStats struct {
	// Engine is the engine's slot index in the pool (0 for single-engine
	// campaigns and for the pool aggregate).
	Engine int
	// Transport is "pipe" or "remote" (a dialed Backends worker).
	Transport string
	// Backend is the remote worker address serving this engine slot (""
	// for in-process engines).
	Backend string `json:",omitempty"`
	// Episodes is how many sessions the engine ran to completion, counted
	// at the client end of the connection (the same for in-process and
	// remote engines): an episode counts when its EpisodeResult reaches
	// the client. Sessions aborted by factory failures, overflow drops or a
	// dying connection are excluded, so under retry the pool aggregate
	// matches the campaign's episode count.
	Episodes int
	// MaxConcurrentSessions is the high-water mark of episodes multiplexed
	// simultaneously over the engine's connection.
	MaxConcurrentSessions int
	// FailedSessions counts sessions aborted server-side (SessionError).
	FailedSessions int
	// Dead reports the engine's backend was condemned (connection lost or
	// Serve loop exited) during the campaign.
	Dead bool
	// Replaced reports the pool swapped a fresh engine into this dead
	// engine's slot. Dead && !Replaced means the slot stayed out of
	// service (replacement budget exhausted).
	Replaced bool
}

// ResultSet is a finished campaign.
type ResultSet struct {
	// Records holds every episode in deterministic order (nil when
	// Config.DiscardRecords streamed them instead of retaining them).
	Records []metrics.EpisodeRecord
	// Reports aggregates per scenario column (injector, or matrix-cell
	// label), in the configured column order.
	Reports []metrics.Report
	// Engine reports the engine pool's aggregate work.
	Engine EngineStats
	// Pool reports the sharded engine pool in detail: per-engine stats,
	// episode retries, and backend replacements.
	Pool PoolStats
	// Adaptive reports the orchestrator's round-by-round allocation when
	// the campaign ran via RunAdaptive (nil for exhaustive sweeps).
	Adaptive *AdaptiveStats `json:",omitempty"`
}

// ReportFor returns the report for an injector name.
func (rs *ResultSet) ReportFor(name string) (metrics.Report, bool) {
	for _, r := range rs.Reports {
		if r.Injector == name {
			return r, true
		}
	}
	return metrics.Report{}, false
}

// runCell is one resolved scenario column: a scenario cell and the key its
// records, reports and seeds go by. Flat campaigns have one cell per
// injector keyed by the bare injector name (preserving historical seed
// derivation); matrix campaigns have one cell per matrix point keyed by the
// cell label.
type runCell struct {
	ScenarioCell
	key string
}

// Runner executes campaigns over one world and agent.
type Runner struct {
	cfg   Config
	world *sim.World
	agent *agent.Agent
	// missions are the sampled (from, to) scenarios.
	missions [][2]world.NodeID
	// cells are the resolved scenario columns.
	cells []runCell
	// backendSeq drives the round-robin rotation over Pool.Backends.
	backendSeq atomic.Uint64
	// worldHash fingerprints cfg.World for the dial-time handshake.
	worldHash uint64
	// status is the live progress snapshot behind Runner.Status (status.go).
	status runnerStatus
}

// minMissionDistM is the least straight-line distance between a sampled
// mission's start and goal, meters.
const minMissionDistM = 150

// NewRunner builds the world, resolves the agent (training it on first use
// if a pretrain spec is given), and samples the missions.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	a := cfg.Agent.Agent
	if a == nil {
		a, err = agent.Pretrained(w, *cfg.Agent.Pretrain)
		if err != nil {
			return nil, err
		}
	}
	r := &Runner{cfg: cfg, world: w, agent: a, worldHash: cfg.World.Hash()}
	if cfg.Matrix != nil {
		for _, c := range cfg.Matrix.Cells() {
			r.cells = append(r.cells, runCell{c, c.Label()})
		}
	} else {
		density := Density{NPCs: cfg.NumNPCs, Pedestrians: cfg.NumPedestrians}
		for _, src := range cfg.Injectors {
			c := ScenarioCell{Injector: src, Weather: cfg.Weather, Density: density, AEB: cfg.EnableAEB}
			r.cells = append(r.cells, runCell{c, src.Name})
		}
	}

	missionStream := rng.New(cfg.Seed).Split("missions")
	for m := 0; m < cfg.Missions; m++ {
		from, to, err := w.Town().RandomMission(missionStream.SplitN(uint64(m)), minMissionDistM)
		if err != nil {
			return nil, fmt.Errorf("campaign: mission %d: %w", m, err)
		}
		r.missions = append(r.missions, [2]world.NodeID{from, to})
	}
	return r, nil
}

// World exposes the runner's world (for examples and diagnostics).
func (r *Runner) World() *sim.World { return r.world }

// Agent exposes the shared trained agent (clone before mutating).
func (r *Runner) Agent() *agent.Agent { return r.agent }

// Missions exposes the sampled scenarios.
func (r *Runner) Missions() [][2]world.NodeID {
	out := make([][2]world.NodeID, len(r.missions))
	copy(out, r.missions)
	return out
}

// job is one episode to run.
type job struct {
	cellIdx    int
	mission    int
	repetition int
	// enqueued is when the feed loop handed the job to the worker channel
	// (zero when telemetry is off) — the queue-wait phase span's start.
	enqueued time.Time
}

// sinkLanes resolves the configured sinks into the pipeline's lane list:
// the shard sinks when sharded, the single sink otherwise (nil for none).
func (r *Runner) sinkLanes() []RecordSink {
	if len(r.cfg.ShardSinks) > 0 {
		return r.cfg.ShardSinks
	}
	if r.cfg.Sink != nil {
		return []RecordSink{r.cfg.Sink}
	}
	return nil
}

// episodeSeed derives the deterministic seed for one job. The key is the
// scenario column label (the bare injector name for flat campaigns, which
// keeps historical suites reproducing bit-identically).
func (r *Runner) episodeSeed(key string, mission, rep int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", r.cfg.Seed, key, mission, rep)
	return h.Sum64()
}

// runEpisode executes one job as a session on the persistent engine.
func (r *Runner) runEpisode(eng *engine, j job) (metrics.EpisodeRecord, error) {
	start := time.Now()
	cell := r.cells[j.cellIdx]
	pair := r.missions[j.mission]
	seed := r.episodeSeed(cell.key, j.mission, j.repetition)

	inst, err := Instantiate(cell.Injector)
	if err != nil {
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: %s: %w", cell.key, err)
	}
	roles := fault.RolesOf(inst)
	driver := &simclient.FaultedDriver{Agent: r.agent.Clone(), Roles: *roles, Rand: rng.New(seed).Split("fault")}
	if roles.Model != nil {
		driver.ApplyModelFault(roles.Model, rng.New(seed).Split("mlfault"))
	}
	if cell.AEB {
		driver.AEB = safety.NewAEB(r.world.EgoParams())
	}

	// The full result rides the wire, so this path is identical for
	// in-process and remote engines.
	res, err := eng.client.RunEpisode(sim.EpisodeConfig{
		From: pair[0], To: pair[1],
		Seed:           seed,
		Weather:        cell.Weather,
		NumNPCs:        cell.Density.NPCs,
		NumPedestrians: cell.Density.Pedestrians,
	}, driver)
	if err != nil {
		return metrics.EpisodeRecord{}, fmt.Errorf("campaign: %s m%d r%d: %w", cell.key, j.mission, j.repetition, err)
	}
	dur := time.Since(start)
	telemetry.CampaignEpisodes.Inc()
	telemetry.EpisodeSeconds.Observe(dur.Seconds())
	if r.cfg.SlowEpisode > 0 && dur > r.cfg.SlowEpisode {
		telemetry.Warnf("campaign: slow episode: cell=%s mission=%d rep=%d engine=%d (%s) took %s (threshold %s)",
			cell.key, j.mission, j.repetition, eng.id, eng.desc(), dur.Round(time.Millisecond), r.cfg.SlowEpisode)
	}
	r.noteEpisode(j.cellIdx, dur)
	injTime := float64(cell.Injector.InjectionFrame) * sim.Dt
	return metrics.FromSimResult(cell.key, j.mission, j.repetition, seed, res, injTime), nil
}

// factory resolves a source to its per-episode constructor: New, or the
// registry spec's constructor for a bare name. It is the package's one
// registry lookup.
func factory(src InjectorSource) (func() interface{}, error) {
	if src.err != nil {
		return nil, src.err
	}
	if src.New != nil {
		return src.New, nil
	}
	spec, err := fault.Lookup(src.Name)
	if err != nil {
		return nil, err
	}
	return spec.New, nil
}

// Instantiate builds one injector instance from a source, resolving
// registry names; exported for tools and examples that drive episodes
// outside the campaign runner.
func Instantiate(src InjectorSource) (interface{}, error) {
	newInst, err := factory(src)
	if err != nil {
		return nil, err
	}
	return newInst(), nil
}
