package campaign

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/adaptive"
	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simserver"
)

// startTestWorkers boots n standalone simulator workers on loopback TCP,
// each with its own tiny world — the same configuration the campaign under
// test uses, which is the one thing remote bit-identity requires. Workers
// are torn down (idempotently, so chaos tests may kill one early) when the
// test ends.
func startTestWorkers(t testing.TB, n int) ([]string, []*simserver.Worker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*simserver.Worker, n)
	for i := 0; i < n; i++ {
		w, err := sim.NewWorld(tinyWorldConfig())
		if err != nil {
			t.Fatal(err)
		}
		wk := simserver.NewWorker(w.NewEpisode, tinyWorldConfig().Hash())
		addr, err := wk.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- wk.Serve() }()
		t.Cleanup(func() {
			wk.Close()
			if err := <-serveDone; err != nil {
				t.Errorf("worker %s Serve: %v", addr, err)
			}
		})
		addrs[i] = addr
		workers[i] = wk
	}
	return addrs, workers
}

// TestRemoteBackendsBitIdentical is the distributed determinism contract:
// the same campaign dispatched onto remote simulator workers must produce
// a ResultSet bit-identical to the single in-process engine run — episodes
// are pure functions of their seeds, and where the server ran is not part
// of the result.
func TestRemoteBackendsBitIdentical(t *testing.T) {
	base := func() Config {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("saltpepper"),
		})
		cfg.Parallelism = 4
		return cfg
	}

	inproc, err := NewRunner(base())
	if err != nil {
		t.Fatal(err)
	}
	want, err := inproc.Run()
	if err != nil {
		t.Fatal(err)
	}

	addrs, workers := startTestWorkers(t, 3)
	cfg := base()
	cfg.Pool = PoolConfig{Backends: addrs} // Engines 0: one slot per backend
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("remote-backend records diverged from the in-process run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("remote-backend reports diverged from the in-process run")
	}
	if got.Engine.Transport != "remote" {
		t.Errorf("aggregate transport = %q, want remote", got.Engine.Transport)
	}
	if len(got.Pool.Engines) != 3 {
		t.Errorf("pool ran %d engines for 3 backends, want 3", len(got.Pool.Engines))
	}
	sum := 0
	seen := map[string]bool{}
	for _, es := range got.Pool.Engines {
		sum += es.Episodes
		if es.Backend == "" {
			t.Errorf("engine %d has no backend address", es.Engine)
		}
		seen[es.Backend] = true
	}
	if sum != len(got.Records) {
		t.Errorf("per-engine episodes sum to %d, want %d", sum, len(got.Records))
	}
	if len(seen) != 3 {
		t.Errorf("round-robin dialed %d distinct backends, want 3", len(seen))
	}
	for _, wk := range workers {
		if wk.ConnsServed() == 0 {
			t.Error("a worker served no connection despite round-robin dispatch")
		}
	}
}

// TestChaosBackendKillMidCampaign is the headline chaos invariant: with
// three remote workers and sharded sinks, killing one worker mid-campaign
// must cost retries and a replacement — never episodes. The run completes
// on the survivors with a ResultSet bit-identical to the undisturbed
// single-engine single-sink run, and the shard logs merge to the same
// byte stream as the undisturbed run's log.
func TestChaosBackendKillMidCampaign(t *testing.T) {
	base := func() Config {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("gaussian"),
		})
		cfg.Missions = 3
		cfg.Repetitions = 2
		return cfg
	}

	baseCfg := base()
	singleLog := &bytes.Buffer{}
	baseCfg.Sink = NewBinarySink(singleLog)
	undisturbed, err := NewRunner(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := undisturbed.Run()
	if err != nil {
		t.Fatal(err)
	}

	addrs, workers := startTestWorkers(t, 3)
	cfg := base()
	cfg.Parallelism = 3
	cfg.Pool = PoolConfig{Backends: addrs, MaxRetries: 6}
	shardLogs := []*bytes.Buffer{{}, {}, {}}
	for _, buf := range shardLogs {
		cfg.ShardSinks = append(cfg.ShardSinks, NewBinarySink(buf))
	}
	// Kill the middle worker once a few episodes are on the books: its
	// engine's connection collapses under in-flight sessions, which must
	// surface as transient failures (retried elsewhere) plus a dead engine
	// (replaced by dialing the next backend in rotation).
	var mu sync.Mutex
	var once sync.Once
	aggregated := 0
	cfg.Progress = func(CellProgress) {
		mu.Lock()
		aggregated++
		kill := aggregated == 3
		mu.Unlock()
		if kill {
			once.Do(func() { workers[1].Close() })
		}
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatalf("campaign did not survive a backend kill: %v", err)
	}

	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("records after backend kill diverged from the undisturbed run")
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("reports after backend kill diverged from the undisturbed run")
	}
	if got.Pool.Replacements < 1 {
		t.Errorf("Pool.Replacements = %d after a backend kill, want >= 1", got.Pool.Replacements)
	}
	dead := 0
	for _, es := range got.Pool.Engines {
		if es.Dead {
			dead++
		}
	}
	if dead < 1 {
		t.Errorf("no engine marked dead after its worker was killed (stats: %+v)", got.Pool.Engines)
	}

	// The shard logs of the disturbed distributed run merge to exactly the
	// undisturbed run's log — a lost backend cost nothing durable either.
	var wantMerged, gotMerged bytes.Buffer
	if _, err := MergeRecords(&wantMerged, FormatJSONL, bytes.NewReader(singleLog.Bytes())); err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shardLogs))
	for i, buf := range shardLogs {
		readers[i] = bytes.NewReader(buf.Bytes())
	}
	if _, err := MergeRecords(&gotMerged, FormatJSONL, readers...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMerged.Bytes(), wantMerged.Bytes()) {
		t.Error("merged shard logs after backend kill are not byte-identical to the undisturbed log")
	}
}

// TestDistributedDeterminismMatrix sweeps the bit-identity matrix the
// distributed campaign rests on: remote-vs-in-process and
// sharded-sink-vs-single-sink, for both the exhaustive sweep and the
// adaptive orchestrator under every policy. Every variant must reproduce
// its baseline's Records and Reports exactly.
func TestDistributedDeterminismMatrix(t *testing.T) {
	base := func() Config {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("gaussian"),
		})
		cfg.Parallelism = 4
		return cfg
	}
	addrs, _ := startTestWorkers(t, 2)

	type variant struct {
		name   string
		remote bool
		shard  int // shard sinks; 0 = single collect sink
	}
	variants := []variant{
		{"remote", true, 0},
		{"sharded-sink", false, 3},
		{"remote+sharded", true, 3},
	}

	configure := func(v variant) (Config, []*collectSink) {
		cfg := base()
		if v.remote {
			cfg.Pool = PoolConfig{Backends: addrs, MaxRetries: 2}
		}
		var sinks []*collectSink
		if v.shard > 0 {
			for i := 0; i < v.shard; i++ {
				s := &collectSink{}
				sinks = append(sinks, s)
				cfg.ShardSinks = append(cfg.ShardSinks, s)
			}
		} else {
			s := &collectSink{}
			sinks = append(sinks, s)
			cfg.Sink = s
		}
		return cfg, sinks
	}
	sunk := func(sinks []*collectSink) []metrics.EpisodeRecord {
		var all []metrics.EpisodeRecord
		for _, s := range sinks {
			all = append(all, s.records...)
		}
		sortRecords(all)
		return all
	}

	t.Run("run", func(t *testing.T) {
		baseline, err := NewRunner(base())
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(v.name, func(t *testing.T) {
				cfg, sinks := configure(v)
				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Records, want.Records) {
					t.Error("records diverged from the in-process single-sink baseline")
				}
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Error("reports diverged from the in-process single-sink baseline")
				}
				if s := sunk(sinks); !reflect.DeepEqual(s, want.Records) {
					t.Errorf("sinks saw %d records; sorted they diverge from the baseline's %d",
						len(s), len(want.Records))
				}
			})
		}
	})

	// The new fault families (comm, actuator, localization, perception)
	// must hold the same bit-identity contract — their injectors draw
	// randomness per frame, so any draw-order drift between in-process and
	// remote execution shows up here. The windowed phantom also rides a
	// windowed fault.Roles bundle, pinning its LIDAR role end-to-end.
	t.Run("new-families", func(t *testing.T) {
		famCfg := func() Config {
			cfg := tinyConfig(t, []InjectorSource{
				Registry("commdelay"),
				Registry("stuckthrottle"),
				Registry("gpswalk"),
				Windowed(Registry("phantomahead"), 5),
			})
			cfg.Parallelism = 4
			return cfg
		}
		baseline, err := NewRunner(famCfg())
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Run()
		if err != nil {
			t.Fatal(err)
		}
		cfg := famCfg()
		cfg.Pool = PoolConfig{Backends: addrs, MaxRetries: 2}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Error("new-family records diverged between in-process and remote")
		}
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			t.Error("new-family reports diverged between in-process and remote")
		}
	})

	for _, policy := range []adaptive.Policy{adaptive.Uniform{}, adaptive.SuccessiveHalving{}, adaptive.UCB{}} {
		acfg := AdaptiveConfig{Policy: policy, Budget: 6, RoundSize: 2}
		t.Run("adaptive-"+policy.Name(), func(t *testing.T) {
			baseline, err := NewRunner(base())
			if err != nil {
				t.Fatal(err)
			}
			want, err := baseline.RunAdaptive(context.Background(), acfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					cfg, sinks := configure(v)
					r, err := NewRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := r.RunAdaptive(context.Background(), acfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Records, want.Records) {
						t.Error("adaptive records diverged from the in-process single-sink baseline")
					}
					if !reflect.DeepEqual(got.Reports, want.Reports) {
						t.Error("adaptive reports diverged from the in-process single-sink baseline")
					}
					if !reflect.DeepEqual(got.Adaptive.Rounds, want.Adaptive.Rounds) {
						t.Error("adaptive allocation diverged: the orchestrator is not schedule-independent")
					}
					if s := sunk(sinks); !reflect.DeepEqual(s, want.Records) {
						t.Error("adaptive sink records (sorted) diverged from the baseline")
					}
				})
			}
		})
	}
}
