// Package avfi is the public API of AVFI, the Autonomous Vehicle Fault
// Injector — a Go reproduction of "AVFI: Fault Injection for Autonomous
// Vehicles" (Jha, Banerjee, Cyriac, Kalbarczyk, Iyer; DSN 2018).
//
// AVFI assesses the end-to-end resilience of an autonomous-driving stack by
// injecting faults into its sensor-compute-actuate loop and measuring
// domain-specific failure metrics. This package bundles:
//
//   - a self-contained urban driving simulator (procedural towns, kinematic
//     vehicle physics, a software-rendered hood camera, NPC traffic and
//     pedestrians) standing in for the paper's CARLA/Unreal substrate;
//   - a conditional imitation-learning driving agent (trainable from the
//     built-in oracle autopilot) standing in for the paper's IL-CNN;
//   - four classes of fault injectors — data (camera/GPS/speed), hardware
//     (bit flips, stuck-at), timing (delay/drop/reorder on the control
//     path) and machine-learning (weight noise and bit flips);
//   - a sharded pool of persistent, session-multiplexed simulation
//     engines: a campaign runs over one server connection per engine,
//     with concurrent episodes interleaved as protocol sessions, least-loaded dispatch across
//     engines (CampaignConfig.Pool), bounded retry of transient episode
//     failures, and replacement of dead backends;
//   - a streaming results pipeline: episode records flow through
//     incremental per-cell aggregation and an optional RecordSink
//     (NewBinarySink writes the durable binary record log), so a campaign
//     can retain just a small fixed-size statistics digest per episode
//     instead of full records (CampaignConfig.DiscardRecords);
//   - campaign orchestration over either the classic flat injector sweep or
//     a ScenarioMatrix (weather x traffic density x AEB x windowed fault
//     activation x injector), with the paper's resilience metrics: Mission
//     Success Rate, Traffic Violations per KM, Accidents per KM, and Time
//     to Traffic Violation;
//   - an adaptive campaign orchestrator (CampaignConfig.Adaptive): a
//     round-based plan -> observe -> reallocate loop that steers the
//     episode budget toward high-risk scenario cells with pluggable
//     policies — Uniform
//     (the exhaustive baseline), SuccessiveHalving (prunes low-risk cells)
//     and UCB (bandit-style exploration) — all deterministic given the
//     campaign seed;
//   - campaign resume: OpenRecordsPath streams a partial episode log (or
//     shard directory), and CampaignConfig.ResumeFrom seeds a new run with
//     it, skipping every (cell, mission, repetition) already recorded;
//   - a distributed fleet mode: SimWorker serves episodes to remote
//     campaigns (avfi serve), PoolConfig.Backends dials a fleet of
//     workers round-robin with retry and dead-worker replacement, and
//     ShardSinks/OpenRecordsPath/MergeRecords shard the durable episode
//     log across independent writers — all bit-identical to the single
//     in-process engine run for the same seed, even under a mid-campaign
//     backend kill.
//
// Binary frames are the only record log format that is written, read
// back, resumed from or merged. JSONL is an export: MergeRecords (and
// avfi records) write it with FormatJSONL, and every reader refuses it.
//
// # Quick start
//
//	spec := avfi.DefaultPretrainSpec()
//	cfg := avfi.CampaignConfig{
//		World:       avfi.DefaultWorldConfig(),
//		Agent:       avfi.AgentSource{Pretrain: &spec},
//		Injectors:   avfi.InputFaultSuite(),
//		Missions:    6,
//		Repetitions: 2,
//		Seed:        1,
//	}
//	runner, err := avfi.NewCampaign(cfg)
//	// ...
//	results, err := runner.Run()
//	avfi.PrintTable(os.Stdout, "input faults", results.Reports)
//
// # Scenario matrices
//
// Replace CampaignConfig.Injectors with a Matrix to sweep a combinatorial
// scenario space; every cell becomes one report column:
//
//	cfg.Injectors = nil
//	cfg.Matrix = &avfi.ScenarioMatrix{
//		Weathers:  []avfi.Weather{avfi.WeatherClear, avfi.WeatherRain},
//		Densities: []avfi.Density{{}, {NPCs: 8, Pedestrians: 4}},
//		AEB:       []bool{false, true},
//		Injectors: avfi.InputFaultSuite(),
//	}
//
// # Adaptive campaigns
//
// Instead of sweeping every cell exhaustively, let a policy steer the
// episode budget toward the cells that are producing violations:
//
//	policy, err := avfi.ParseAdaptivePolicy("ucb") // or "halving", "uniform"
//	// ...
//	cfg.Adaptive = &avfi.AdaptiveConfig{
//		Policy: policy,
//		Budget: 5000, // total episodes, any grid size
//	}
//	runner, err := avfi.NewCampaign(cfg)
//	// ...
//	rs, err := runner.RunContext(ctx)
//	// rs.Adaptive reports the per-round and per-cell allocation.
//
// Campaigns remain a pure function of their configuration: all mission,
// episode and injector randomness derives from Config.Seed, so results
// reproduce bit-identically run to run — adaptive allocation included.
//
// The types below are aliases of the implementation packages, so values
// returned here interoperate with the whole library surface.
package avfi

import (
	"io"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/campaign"
	"github.com/avfi/avfi/internal/fault"

	// Link every built-in fault injector into the registry.
	_ "github.com/avfi/avfi/internal/fault/hwfault"
	_ "github.com/avfi/avfi/internal/fault/imagefault"
	_ "github.com/avfi/avfi/internal/fault/mlfault"
	_ "github.com/avfi/avfi/internal/fault/sensorfault"
	_ "github.com/avfi/avfi/internal/fault/timingfault"

	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simserver"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/world"
)

// Campaign configuration and execution.
type (
	// CampaignConfig parameterizes a fault-injection campaign.
	CampaignConfig = campaign.Config
	// InjectorSource names/constructs one injector column of a campaign.
	InjectorSource = campaign.InjectorSource
	// AgentSource supplies the system under test.
	AgentSource = campaign.AgentSource
	// Runner executes campaigns.
	Runner = campaign.Runner
	// ResultSet is a finished campaign.
	ResultSet = campaign.ResultSet
	// ScenarioMatrix sweeps weather x density x AEB x activation x injector.
	ScenarioMatrix = campaign.ScenarioMatrix
	// ScenarioCell is one resolved point of a scenario matrix.
	ScenarioCell = campaign.ScenarioCell
	// Density is one traffic-population level of a scenario matrix.
	Density = campaign.Density
	// EngineStats describes one persistent engine's work for a campaign
	// (and, as ResultSet.Engine, the pool aggregate).
	EngineStats = campaign.EngineStats
	// PoolConfig shards a campaign across a pool of persistent engines and
	// bounds per-episode retry after transient backend failures.
	PoolConfig = campaign.PoolConfig
	// PoolStats reports the engine pool's work: per-engine stats, episode
	// retries, and backend replacements.
	PoolStats = campaign.PoolStats
	// RecordSink consumes episode records as they complete — the streaming
	// results path for campaigns too large to retain in memory.
	RecordSink = campaign.RecordSink
	// RecordSource streams episode records one at a time (io.EOF ends the
	// stream) — the O(1)-memory resume path (CampaignConfig.ResumeFrom).
	RecordSource = campaign.RecordSource
	// RecordStream is a RecordSource over a log file or shard directory;
	// the caller must Close it (see OpenRecordsPath).
	RecordStream = campaign.RecordStream
	// RecordFormat selects the encoding MergeRecords writes: FormatBinary
	// (the record log format, and the zero value) or FormatJSONL (the
	// export).
	RecordFormat = campaign.RecordFormat
	// CellProgress is one cell's running aggregate (VPK stats plus
	// violation tallies), delivered to CampaignConfig.Progress.
	CellProgress = campaign.CellProgress
	// SimWorker is a standalone remote simulator backend: it accepts many
	// campaign connections over its lifetime, each served by its own
	// session-multiplexed engine (see NewSimWorker and PoolConfig.Backends).
	SimWorker = simserver.Worker
)

// Adaptive campaign orchestration (CampaignConfig.Adaptive): risk-driven
// episode allocation over the scenario matrix.
type (
	// AdaptiveConfig parameterizes CampaignConfig.Adaptive: policy, total
	// episode budget, round size.
	AdaptiveConfig = campaign.AdaptiveConfig
	// AdaptiveStats reports how an adaptive campaign spent its budget over
	// rounds and cells (ResultSet.Adaptive).
	AdaptiveStats = campaign.AdaptiveStats
	// RoundStats summarizes one adaptive round.
	RoundStats = campaign.RoundStats
	// CellBudget is one cell's share of an adaptive campaign's work.
	CellBudget = campaign.CellBudget
	// AdaptivePolicy decides each round's episode allocation; implement it
	// to plug a custom sampling strategy into an adaptive campaign.
	AdaptivePolicy = adaptive.Policy
	// AdaptiveCellStats is the per-cell posterior a policy allocates from.
	AdaptiveCellStats = adaptive.CellStats
)

// Metrics.
type (
	// Report aggregates one injector's resilience metrics (MSR, VPK, APK,
	// TTV) — one bar of the paper's figures.
	Report = metrics.Report
	// EpisodeRecord is one mission's outcome.
	EpisodeRecord = metrics.EpisodeRecord
	// ViolationRecord is one safety violation within an episode.
	ViolationRecord = metrics.ViolationRecord
	// Comparison is a bootstrap-backed baseline-vs-treatment contrast.
	Comparison = metrics.Comparison
	// ReportBuilder aggregates one scenario column incrementally; its Build
	// matches batch BuildReport exactly, in any record-completion order.
	ReportBuilder = metrics.ReportBuilder
)

// World and agent.
type (
	// WorldConfig selects the town and camera.
	WorldConfig = sim.WorldConfig
	// World is a generated simulation arena.
	World = sim.World
	// EpisodeConfig parameterizes one mission.
	EpisodeConfig = sim.EpisodeConfig
	// Agent is the imitation-learning driving agent.
	Agent = agent.Agent
	// AgentConfig sizes the agent's networks.
	AgentConfig = agent.Config
	// PretrainSpec is a (data, training) recipe for the agent.
	PretrainSpec = agent.PretrainSpec
	// TownConfig parameterizes procedural town generation.
	TownConfig = world.TownConfig
	// Weather is the episode's ambient condition.
	Weather = world.Weather
)

// Fault-injection extension points: implement these to plug custom fault
// models into a campaign (see examples/customfault).
type (
	// InputInjector corrupts sensor data before the agent sees it.
	InputInjector = fault.InputInjector
	// OutputInjector corrupts control commands after the agent.
	OutputInjector = fault.OutputInjector
	// LidarInjector is the optional extra role for input injectors that
	// corrupt the LIDAR scan the AEB safety monitor watches.
	LidarInjector = fault.LidarInjector
	// TimingInjector reshapes the control stream in time.
	TimingInjector = fault.TimingInjector
	// ModelInjector corrupts the agent's network parameters.
	ModelInjector = fault.ModelInjector
	// Image is the camera frame fault models operate on.
	Image = render.Image
	// Control is a vehicle actuation command.
	Control = physics.Control
	// Rand is the deterministic random stream handed to injectors.
	Rand = rng.Stream
	// TopDownConfig parameterizes the spectator (bird's-eye) view.
	TopDownConfig = render.TopDownConfig
)

// Weather presets.
const (
	WeatherClear = world.WeatherClear
	WeatherRain  = world.WeatherRain
	WeatherFog   = world.WeatherFog
)

// Campaign service: the long-lived control plane that owns one shared
// engine fleet, lets workers announce themselves (mid-campaign included),
// and schedules many concurrent campaigns fairly over it (avfi service
// is this, as a process; see NewCampaignService).
type (
	// CampaignService is the control plane: worker registry, campaign
	// submission, fair multi-campaign scheduling, results buffering.
	CampaignService = campaign.Service
	// CampaignServiceConfig parameterizes a CampaignService.
	CampaignServiceConfig = campaign.ServiceConfig
	// CampaignSpec is one declarative campaign submission (the JSON body
	// of POST /campaigns, and what avfi run builds from its flags);
	// CampaignSpec.Lower resolves it into a CampaignConfig.
	CampaignSpec = campaign.CampaignSpec
	// MatrixSpec is CampaignSpec's scenario-matrix form.
	MatrixSpec = campaign.MatrixSpec
	// AdaptiveSpec is CampaignSpec's adaptive-allocation form.
	AdaptiveSpec = campaign.AdaptiveSpec
	// CampaignInfo is one submitted campaign's API view (spec, buffered
	// record count, live status).
	CampaignInfo = campaign.CampaignInfo
	// WorkerInfo is one registered worker's API view.
	WorkerInfo = campaign.WorkerInfo
	// WorldMismatchError reports a dialed worker serving a different
	// world configuration than the campaign's (check with errors.As).
	WorldMismatchError = campaign.WorldMismatchError
)

// NewCampaignService starts the campaign control plane: it resolves the
// agent once, fingerprints the world for the worker handshake, and begins
// re-dialing registered workers that are down. Mount svc.Handler() on a
// TelemetryServer (srv.Handle("/campaigns", ...) — or just use avfi
// service) to expose the HTTP API, and Close it to tear the fleet down.
func NewCampaignService(cfg CampaignServiceConfig) (*CampaignService, error) {
	return campaign.NewService(cfg)
}

// Telemetry and observability: every AVFI process can expose its live
// metrics (Prometheus text), a JSON status snapshot, health, and pprof on
// one address (avfi run -status-addr does exactly this).
type (
	// TelemetryServer is the status/metrics/pprof HTTP endpoint returned
	// by ServeTelemetry; attach JSON sections with SetStatus and stop it
	// with Close.
	TelemetryServer = telemetry.Server
	// CampaignStatus is Runner.Status's snapshot: campaign progress,
	// per-engine health, per-cell timing, adaptive round state.
	CampaignStatus = campaign.CampaignStatus
	// CellStatus is one scenario cell's live progress within a
	// CampaignStatus.
	CellStatus = campaign.CellStatus
	// AdaptiveStatus is the adaptive round loop's live state within a
	// CampaignStatus.
	AdaptiveStatus = campaign.AdaptiveStatus
	// WorkerStatus is SimWorker.Status's snapshot: connections served and
	// active.
	WorkerStatus = simserver.WorkerStatus
	// LogLevel selects the process-wide logging verbosity (see
	// SetLogLevel).
	LogLevel = telemetry.Level
)

// Log levels for SetLogLevel, most to least verbose.
const (
	LogDebug = telemetry.LevelDebug
	LogInfo  = telemetry.LevelInfo
	LogWarn  = telemetry.LevelWarn
	LogError = telemetry.LevelError
	LogOff   = telemetry.LevelOff
)

// ServeTelemetry starts the observability endpoint on addr (":0" picks a
// port; see TelemetryServer.Addr) serving /metrics (Prometheus text
// exposition), /statusz (JSON), /healthz, and /debug/pprof/*. It also
// enables metric collection process-wide, so the instruments the endpoint
// exposes are live. Campaigns attach their progress with
// srv.SetStatus("campaign", func() any { return runner.Status() }).
func ServeTelemetry(addr string) (*TelemetryServer, error) {
	return telemetry.Serve(addr, nil)
}

// SetTelemetryEnabled turns metric collection on or off process-wide
// without serving an endpoint (ServeTelemetry enables it implicitly).
// Collection is off by default and costs one predicted branch per
// instrument when disabled.
func SetTelemetryEnabled(on bool) { telemetry.SetEnabled(on) }

// SetLogLevel sets the process-wide log verbosity. The default is LogWarn:
// quiet operation, with engine deaths, slow episodes and dropped sessions
// still surfaced.
func SetLogLevel(l LogLevel) { telemetry.SetLogLevel(l) }

// WriteMetrics writes the process's metrics as Prometheus text exposition
// — the /metrics payload, for callers that want it without an HTTP server.
func WriteMetrics(w io.Writer) error {
	return telemetry.Default.WritePrometheus(w)
}

// LintPrometheusText validates a Prometheus text exposition payload —
// what CI uses to fail on a malformed /metrics scrape.
func LintPrometheusText(body []byte) error { return telemetry.LintPrometheus(body) }

// NoInject is the canonical name of the fault-free baseline column.
const NoInject = fault.NoopName

// FPS is the simulation frame rate (the paper's 15 frames per second).
const FPS = sim.FPS

// NewCampaign builds a campaign runner: it generates the world, resolves
// (and if necessary trains) the agent, and samples the missions.
func NewCampaign(cfg CampaignConfig) (*Runner, error) {
	return campaign.NewRunner(cfg)
}

// NewWorld generates a simulation world.
func NewWorld(cfg WorldConfig) (*World, error) { return sim.NewWorld(cfg) }

// DefaultWorldConfig returns the town/camera used by the paper-figure
// experiments.
func DefaultWorldConfig() WorldConfig { return sim.DefaultWorldConfig() }

// DefaultPretrainSpec returns the training recipe behind the experiments'
// pretrained agent.
func DefaultPretrainSpec() PretrainSpec { return agent.DefaultPretrainSpec() }

// NewAgent builds an untrained agent (use TrainAgent or Agent.Train to fit
// it; an untrained agent drives, badly).
func NewAgent(cfg AgentConfig) (*Agent, error) { return agent.New(cfg) }

// TrainAgent trains a fresh agent on the world per the spec (no caching).
func TrainAgent(w *World, spec PretrainSpec) (*Agent, error) {
	return agent.TrainNew(w, spec)
}

// PretrainedAgent returns the process-cached trained agent for the spec.
func PretrainedAgent(w *World, spec PretrainSpec) (*Agent, error) {
	return agent.Pretrained(w, spec)
}

// LoadAgent reads an agent saved with Agent.Save.
func LoadAgent(r io.Reader) (*Agent, error) { return agent.Load(r) }

// Injector resolves a registered injector name into a campaign column.
// See RegisteredInjectors for the available names.
func Injector(name string) InjectorSource { return campaign.Registry(name) }

// Instantiate builds one injector instance from a source (for driving
// episodes outside the campaign runner; the runner instantiates per episode
// itself).
func Instantiate(src InjectorSource) (interface{}, error) {
	return campaign.Instantiate(src)
}

// NewRand returns a deterministic random stream for hand-rolled episode
// loops; campaigns derive their own streams from the campaign seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Compare bootstraps the MSR and VPK differences between two injectors'
// records (95% intervals, deterministic given the stream).
func Compare(baseline, treatment []EpisodeRecord, iters int, r *Rand) (Comparison, error) {
	return metrics.Compare(baseline, treatment, iters, r)
}

// RegisteredInjectors lists every built-in injector name.
func RegisteredInjectors() []string { return fault.Names() }

// FaultClasses lists every fault class name ("data", "hardware", "timing",
// "ml", "comm", "actuator", "localization", "perception", "none").
func FaultClasses() []string {
	classes := fault.Classes()
	out := make([]string, 0, len(classes))
	for _, c := range classes {
		out = append(out, c.String())
	}
	return out
}

// FaultTaxonomySuite returns one representative injector per fault class
// plus the fault-free baseline — the cross-family campaign sweep.
func FaultTaxonomySuite() []InjectorSource { return campaign.TaxonomySuite() }

// InputFaultSuite returns the paper's Figure 2/3 columns: the baseline plus
// the five camera faults (gaussian, salt & pepper, solid occlusion,
// transparent occlusion, water drop).
func InputFaultSuite() []InjectorSource { return campaign.InputFaultSuite() }

// DelaySweep returns the paper's Figure 4 columns: output delay of k frames
// between decision and actuation for each k.
func DelaySweep(frames []int) []InjectorSource { return campaign.DelaySweep(frames) }

// Fig4Frames is the paper's Figure 4 x-axis: {0, 5, 10, 20, 30} frames.
func Fig4Frames() []int { return append([]int(nil), campaign.Fig4Frames...) }

// Windowed delays an injector's activation to startFrame (frames at FPS),
// enabling mid-episode injection and meaningful Time-To-Violation
// measurement. Every per-frame role is gated; a model (ML) fault still
// corrupts the network at frame 0.
func Windowed(src InjectorSource, startFrame int) InjectorSource {
	return campaign.Windowed(src, startFrame)
}

// PrintTable renders per-injector reports as an aligned text table.
func PrintTable(w io.Writer, title string, reports []Report) {
	campaign.PrintTable(w, title, reports)
}

// WriteRecordsCSV emits one CSV row per episode.
func WriteRecordsCSV(w io.Writer, records []EpisodeRecord) error {
	return campaign.WriteRecordsCSV(w, records)
}

// WriteReportsCSV emits one CSV row per injector aggregate.
func WriteReportsCSV(w io.Writer, reports []Report) error {
	return campaign.WriteReportsCSV(w, reports)
}

// WriteJSON emits a full result set as JSON.
func WriteJSON(w io.Writer, rs *ResultSet) error { return campaign.WriteJSON(w, rs) }

// NewBinarySink returns a RecordSink streaming one compact binary frame
// per episode to w — the durable record log that OpenRecordsPath resumes
// from and MergeRecords merges. The caller keeps ownership of w.
func NewBinarySink(w io.Writer) RecordSink { return campaign.NewBinarySink(w) }

// Record stream encodings (see RecordFormat).
const (
	// FormatBinary is the record log encoding, the only one read back.
	FormatBinary = campaign.FormatBinary
	// FormatJSONL is the text export encoding: written, never read.
	FormatJSONL = campaign.FormatJSONL
)

// ParseRecordFormat parses an output format name: "binary" or "jsonl".
func ParseRecordFormat(s string) (RecordFormat, error) {
	return campaign.ParseRecordFormat(s)
}

// NewSimWorker builds a standalone simulator worker serving w's episodes
// to remote campaigns: Listen/Serve accept campaign connections for the
// worker's whole lifetime (avfi serve is this, as a process). A campaign
// whose PoolConfig.Backends lists the worker's address produces results
// bit-identical to an in-process run, provided the worker's world
// configuration matches the campaign's. The worker announces that
// configuration's fingerprint in its hello, so a mismatched campaign (or
// CampaignService) rejects the pairing at dial time instead of silently
// producing divergent results.
func NewSimWorker(w *World) *SimWorker {
	return simserver.NewWorker(w.NewEpisode, w.Config().Hash())
}

// BinaryShardLogName names shard i's binary record log inside a sharded
// -stream-records directory ("records-<i>.bin").
func BinaryShardLogName(i int) string { return campaign.BinaryShardLogName(i) }

// MergeRecords merges any set of binary episode logs — shard logs, single
// logs, or a mix — into the canonical sorted record stream on w in the
// chosen output format, returning the record count: FormatBinary for a
// log, FormatJSONL for the export. Sharded and single-sink runs of the
// same campaign merge to byte-identical output. A source that is not a
// binary log is an error naming it. Merging streams one sorted run per
// source; memory is O(records) per source, never a combined copy.
func MergeRecords(w io.Writer, format RecordFormat, sources ...io.Reader) (int, error) {
	return campaign.MergeRecords(w, format, sources...)
}

// OpenRecordsPath opens a binary episode record log for streaming: a file
// streams its records, a directory streams every shard log it holds
// (records-*.bin), one file descriptor and one record of memory at a
// time. A directory holding no shard log is an error naming it. Set the stream as CampaignConfig.ResumeFrom to resume a campaign
// of any size in O(1) memory — the first Run consumes it — and Close it
// after the run.
func OpenRecordsPath(path string) (*RecordStream, error) {
	return campaign.OpenRecordsPath(path)
}

// LoadRecords reads every record from one binary log. A truncated final
// frame (crash mid-write) is tolerated and dropped; a log that is not
// binary is an error, naming it when r is a file.
func LoadRecords(r io.Reader) ([]EpisodeRecord, error) {
	return campaign.LoadRecords(r)
}

// CompleteBinaryPrefixLen returns the byte length of the longest prefix
// of a binary record log holding only complete frames — what to truncate
// to before appending to a log that may end in a crash-truncated frame.
func CompleteBinaryPrefixLen(r io.Reader) (int64, error) {
	return campaign.CompleteBinaryPrefixLen(r)
}

// ParseAdaptivePolicy resolves a policy name (uniform|halving|ucb).
func ParseAdaptivePolicy(name string) (AdaptivePolicy, error) {
	return adaptive.ParsePolicy(name)
}

// NewReportBuilder starts an empty incremental aggregator for one scenario
// column — for hand-rolled episode loops that want campaign-grade reports
// without retaining records.
func NewReportBuilder(injector string) *ReportBuilder {
	return metrics.NewReportBuilder(injector)
}

// DefaultTopDownConfig views the whole town at 256x256.
func DefaultTopDownConfig() TopDownConfig { return render.DefaultTopDownConfig() }

// WritePPM writes an image as binary PPM (P6) — works for camera frames and
// spectator views alike.
func WritePPM(w io.Writer, im *Image) error { return render.WritePPM(w, im) }
