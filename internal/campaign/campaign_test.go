package campaign

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/world"
)

// tinyWorldConfig keeps campaign-mechanics tests fast: small town, small
// camera.
func tinyWorldConfig() sim.WorldConfig {
	cfg := sim.DefaultWorldConfig()
	cfg.Town.GridW, cfg.Town.GridH = 3, 3
	cfg.Camera.Width, cfg.Camera.Height = 16, 12
	return cfg
}

// tinyAgent returns an untrained agent matching the tiny camera — campaign
// mechanics don't require driving skill.
func tinyAgent(tb testing.TB) *agent.Agent {
	tb.Helper()
	a, err := agent.New(agent.Config{
		ImageW: 16, ImageH: 12, Conv1: 4, Conv2: 4,
		FeatDim: 8, MeasDim: 4, HeadHidden: 8, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func tinyConfig(tb testing.TB, injectors []InjectorSource) Config {
	tb.Helper()
	return Config{
		World:       tinyWorldConfig(),
		Agent:       AgentSource{Agent: tinyAgent(tb)},
		Injectors:   injectors,
		Missions:    2,
		Repetitions: 2,
		Seed:        3,
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	if err := good.Validate(); err != nil {
		t.Errorf("good config invalid: %v", err)
	}
	bad := good
	bad.Injectors = nil
	if err := bad.Validate(); err == nil {
		t.Error("no injectors accepted")
	}
	bad = good
	bad.Missions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero missions accepted")
	}
	bad = good
	bad.Agent = AgentSource{}
	if err := bad.Validate(); err == nil {
		t.Error("missing agent accepted")
	}
	bad = good
	bad.Injectors = []InjectorSource{Registry("nonsense")}
	if err := bad.Validate(); err == nil {
		t.Error("unknown injector accepted")
	}
	bad = good
	bad.Injectors = []InjectorSource{{}}
	if err := bad.Validate(); err == nil {
		t.Error("unnamed injector accepted")
	}
	bad = good
	bad.NumNPCs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative NPC count accepted")
	}
}

// TestWireRangeFailsByName: 65536 NPCs do not fit the wire's uint16. The
// campaign refuses them at Validate (flat and matrix, and through a
// spec's Lower), and a client refuses such a scenario at RunEpisode before
// it joins a batch — the server never sees it, and the next episode on the
// same engine runs.
func TestWireRangeFailsByName(t *testing.T) {
	flat := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	flat.NumNPCs = 65536
	matrix := tinyConfig(t, nil)
	matrix.Matrix = &ScenarioMatrix{
		Injectors: []InjectorSource{Registry(fault.NoopName)},
		Densities: []Density{{NPCs: 65536}},
	}
	weather := tinyConfig(t, nil)
	weather.Matrix = &ScenarioMatrix{
		Injectors: []InjectorSource{Registry(fault.NoopName)},
		Weathers:  []world.Weather{256},
	}
	for name, cfg := range map[string]Config{"flat": flat, "matrix density": matrix, "matrix weather": weather} {
		if err := cfg.Validate(); !errors.Is(err, proto.ErrWireRange) {
			t.Errorf("%s: Validate = %v, want proto.ErrWireRange", name, err)
		}
	}
	spec := CampaignSpec{Injectors: []string{fault.NoopName}, Missions: 1, Repetitions: 1, NPCs: 65536}
	if _, err := spec.Lower(); !errors.Is(err, proto.ErrWireRange) {
		t.Errorf("Lower = %v, want proto.ErrWireRange", err)
	}

	// In the wire's range but past what a worker builds or renders: the
	// campaign refuses it up front too, not episode by episode on the
	// worker (whose refusal would be retried as a session error).
	crowd := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	crowd.NumPedestrians = sim.MaxActors + 1
	oddWeather := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	oddWeather.Weather = 200
	matrixCrowd := tinyConfig(t, nil)
	matrixCrowd.Matrix = &ScenarioMatrix{
		Injectors: []InjectorSource{Registry(fault.NoopName)},
		Densities: []Density{{NPCs: sim.MaxActors + 1}},
	}
	matrixWeather := tinyConfig(t, nil)
	matrixWeather.Matrix = &ScenarioMatrix{
		Injectors: []InjectorSource{Registry(fault.NoopName)},
		Weathers:  []world.Weather{world.WeatherClear, 200},
	}
	for name, cfg := range map[string]Config{"flat crowd": crowd, "flat weather": oddWeather,
		"matrix crowd": matrixCrowd, "matrix weather": matrixWeather} {
		if err := cfg.Validate(); err == nil || errors.Is(err, proto.ErrWireRange) {
			t.Errorf("%s: Validate = %v, want the episode bound's refusal", name, err)
		}
	}

	r, err := NewRunner(tinyConfig(t, []InjectorSource{Registry(fault.NoopName)}))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := r.startEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.close()
	idle := &simclient.AutopilotDriver{Fn: func(*proto.SensorFrame) physics.Control { return physics.Control{} }}
	ecfg := sim.EpisodeConfig{From: r.missions[0][0], To: r.missions[0][1], Seed: 1, TimeoutSec: 0.5, NumNPCs: 65536}
	if _, err := eng.client.RunEpisode(ecfg, idle); !errors.Is(err, proto.ErrWireRange) {
		t.Fatalf("RunEpisode = %v, want proto.ErrWireRange", err)
	}
	ecfg.NumNPCs = 0
	if res, err := eng.client.RunEpisode(ecfg, idle); err != nil || res.Frames == 0 {
		t.Fatalf("next episode on the engine: %+v, %v", res, err)
	}
	if got := eng.server.TotalSessions(); got != 1 {
		t.Errorf("server saw %d sessions, want only the in-range one", got)
	}
}

func TestRunSmallCampaign(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{
		Registry(fault.NoopName),
		Registry("gaussian"),
	})
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantEpisodes := 2 * 2 * 2 // injectors x missions x reps
	if len(rs.Records) != wantEpisodes {
		t.Fatalf("records = %d, want %d", len(rs.Records), wantEpisodes)
	}
	if len(rs.Reports) != 2 {
		t.Fatalf("reports = %d", len(rs.Reports))
	}
	// Reports follow injector config order, not alphabetical.
	if rs.Reports[0].Injector != fault.NoopName || rs.Reports[1].Injector != "gaussian" {
		t.Errorf("report order: %s, %s", rs.Reports[0].Injector, rs.Reports[1].Injector)
	}
	for _, rec := range rs.Records {
		if rec.DistanceKM < 0 || rec.DurationSec <= 0 {
			t.Errorf("suspicious record: %+v", rec)
		}
	}
	if _, ok := rs.ReportFor("gaussian"); !ok {
		t.Error("ReportFor failed")
	}
	if _, ok := rs.ReportFor("missing"); ok {
		t.Error("ReportFor invented a report")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() *ResultSet {
		cfg := tinyConfig(t, []InjectorSource{Registry("saltpepper")})
		cfg.Parallelism = 3
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatal("record counts differ")
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Seed != rb.Seed || ra.DistanceKM != rb.DistanceKM ||
			ra.Success != rb.Success || len(ra.Violations) != len(rb.Violations) {
			t.Fatalf("record %d diverged:\n%+v\n%+v", i, ra, rb)
		}
	}
}

func TestCampaignOverTCP(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Missions = 1
	cfg.Repetitions = 1
	addrs, _ := startTestWorkers(t, 1)
	cfg.Pool.Backends = addrs
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 1 {
		t.Fatalf("records = %d", len(rs.Records))
	}

	// Same campaign over the pipe must agree (transport equivalence).
	cfg2 := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg2.Missions = 1
	cfg2.Repetitions = 1
	r2, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records[0].DistanceKM != rs2.Records[0].DistanceKM ||
		rs.Records[0].Success != rs2.Records[0].Success {
		t.Errorf("TCP vs pipe diverged: %+v vs %+v", rs.Records[0], rs2.Records[0])
	}
}

func TestMissionsDeterministicAndExposed(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	r1, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	r2, err := NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Missions(), r2.Missions()
	if len(m1) != 2 || len(m2) != 2 {
		t.Fatal("missions not sampled")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Error("mission sampling not deterministic")
		}
	}
}

// TestPretrainTrainsForEachRunnersWorld: a pretrain spec is trained by each
// Runner on its own world, so two runners sharing one spec on worlds that
// differ only in camera size each get an agent sized to their own camera.
func TestPretrainTrainsForEachRunnersWorld(t *testing.T) {
	spec := agent.PretrainSpec{
		Missions: 1,
		Collect:  agent.DefaultCollectConfig(),
		Train:    agent.DefaultTrainConfig(),
		Agent:    tinyAgent(t).Config(),
		DataSeed: 5,
	}
	spec.Train.Epochs = 1
	for _, cam := range [][2]int{{16, 12}, {24, 18}} {
		cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
		cfg.World.Camera.Width, cfg.World.Camera.Height = cam[0], cam[1]
		cfg.Agent = AgentSource{Pretrain: &spec}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Agent().Config(); got.ImageW != cam[0] || got.ImageH != cam[1] {
			t.Errorf("%dx%d world: agent sized %dx%d", cam[0], cam[1], got.ImageW, got.ImageH)
		}
	}
}

func TestInputFaultSuiteShape(t *testing.T) {
	suite := InputFaultSuite()
	if len(suite) != 6 {
		t.Fatalf("suite size = %d, want 6", len(suite))
	}
	if suite[0].Name != fault.NoopName {
		t.Error("suite must start with the baseline")
	}
	for _, src := range suite {
		if src.New == nil {
			if _, err := fault.Lookup(src.Name); err != nil {
				t.Errorf("suite entry %q unresolvable", src.Name)
			}
		}
	}
}

func TestDelaySweepShape(t *testing.T) {
	sweep := DelaySweep(Fig4Frames)
	if len(sweep) != 5 {
		t.Fatalf("sweep size = %d", len(sweep))
	}
	if sweep[0].Name != "delay-00" || sweep[4].Name != "delay-30" {
		t.Errorf("sweep names: %s .. %s", sweep[0].Name, sweep[4].Name)
	}
	// Factories must produce independent instances.
	a := sweep[2].New()
	b := sweep[2].New()
	if a == b {
		t.Error("factory returned shared instance")
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	records := []metrics.EpisodeRecord{
		{Injector: "noinject", Mission: 0, Seed: 1, Success: true, DistanceKM: 0.5, DurationSec: 30},
		{Injector: "gaussian", Mission: 1, Seed: 2, DistanceKM: 0.2, DurationSec: 60,
			Violations: []metrics.ViolationRecord{{Kind: "lane", TimeSec: 5}}},
	}
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "injector,mission") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "gaussian") || !strings.Contains(lines[2], "5.000") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestWriteReportsCSVAndJSON(t *testing.T) {
	reports := []metrics.Report{
		metrics.BuildReport("noinject", []metrics.EpisodeRecord{
			{Injector: "noinject", Success: true, DistanceKM: 1},
		}),
	}
	var buf bytes.Buffer
	if err := WriteReportsCSV(&buf, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "noinject") {
		t.Error("reports CSV missing injector")
	}

	buf.Reset()
	rs := &ResultSet{Reports: reports}
	if err := WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"Injector\": \"noinject\"") {
		t.Errorf("JSON output: %s", buf.String())
	}

	buf.Reset()
	PrintTable(&buf, "Figure 2", reports)
	if !strings.Contains(buf.String(), "Figure 2") || !strings.Contains(buf.String(), "noinject") {
		t.Error("table output incomplete")
	}
}

func TestCampaignWeatherApplied(t *testing.T) {
	// Rain vs clear must change episode outcomes deterministically (same
	// seeds, different sensory input to the agent).
	run := func(w world.Weather) *ResultSet {
		cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
		cfg.Missions = 1
		cfg.Repetitions = 1
		cfg.Weather = w
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	clear := run(world.WeatherClear)
	rain := run(world.WeatherRain)
	// Identical seeds: any outcome difference is attributable to weather.
	// (The untrained agent's reaction to rain pixels differs; exact
	// equality would mean weather never reached the pipeline.)
	if clear.Records[0].DistanceKM == rain.Records[0].DistanceKM &&
		clear.Records[0].DurationSec == rain.Records[0].DurationSec {
		t.Error("weather had no observable effect on the episode")
	}
}

func TestCampaignAEBConfig(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Missions = 1
	cfg.Repetitions = 1
	cfg.EnableAEB = true
	cfg.NumNPCs = 3
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}
