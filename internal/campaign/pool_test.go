package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/simserver"
	"github.com/avfi/avfi/internal/transport"
)

// TestPoolCampaignBitIdentical is the sharding determinism contract: the
// same campaign run on a 4-engine pool must produce a ResultSet
// bit-identical to the single-engine run — episodes are pure functions of
// their seeds, and which engine served one is not part of the result.
func TestPoolCampaignBitIdentical(t *testing.T) {
	run := func(engines int) *ResultSet {
		cfg := tinyConfig(t, []InjectorSource{
			Registry(fault.NoopName),
			Registry("saltpepper"),
		})
		cfg.Parallelism = 4
		cfg.Pool = PoolConfig{Engines: engines}
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
	single, pooled := run(1), run(4)
	if !reflect.DeepEqual(single.Records, pooled.Records) {
		t.Error("pooled records diverged from single-engine records")
	}
	if !reflect.DeepEqual(single.Reports, pooled.Reports) {
		t.Error("pooled reports diverged from single-engine reports")
	}
	if got := len(pooled.Pool.Engines); got != 4 {
		t.Errorf("pool ran %d engines, want 4", got)
	}
	if pooled.Engine.Episodes != len(pooled.Records) {
		t.Errorf("aggregate engine episodes = %d, want %d", pooled.Engine.Episodes, len(pooled.Records))
	}
	var sum int
	for _, es := range pooled.Pool.Engines {
		sum += es.Episodes
	}
	if sum != len(pooled.Records) {
		t.Errorf("per-engine episodes sum to %d, want %d", sum, len(pooled.Records))
	}
}

// failFirstOpens wraps an episode factory to fail the first n sessions it
// sees — the injected transient backend fault the retry path must absorb.
func failFirstOpens(n int, calls *int) func(simserver.EpisodeFactory) simserver.EpisodeFactory {
	var mu sync.Mutex
	return func(f simserver.EpisodeFactory) simserver.EpisodeFactory {
		return func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
			mu.Lock()
			*calls++
			fail := *calls <= n
			mu.Unlock()
			if fail {
				return nil, errors.New("injected transient failure")
			}
			return f(cfg)
		}
	}
}

func TestEpisodeRetryAfterTransientFailure(t *testing.T) {
	clean := func() *ResultSet {
		cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}()

	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Parallelism = 2
	cfg.Pool = PoolConfig{Engines: 2, MaxRetries: 2}
	var calls int
	cfg.testFactoryWrap = failFirstOpens(1, &calls)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Run()
	if err != nil {
		t.Fatalf("campaign did not absorb a transient session failure: %v", err)
	}
	if rs.Pool.Retries != 1 {
		t.Errorf("Pool.Retries = %d, want 1", rs.Pool.Retries)
	}
	// The retried episode reruns from the same seed: results are identical
	// to the failure-free campaign.
	if !reflect.DeepEqual(rs.Records, clean.Records) {
		t.Error("records after retry diverged from the failure-free run")
	}
	var failed int
	for _, es := range rs.Pool.Engines {
		failed += es.FailedSessions
	}
	if failed != 1 {
		t.Errorf("pool counted %d failed sessions, want 1", failed)
	}
	// Episodes counts completions, not attempts: the aborted session must
	// not inflate the aggregate.
	if rs.Engine.Episodes != len(rs.Records) {
		t.Errorf("Engine.Episodes = %d under retry, want %d", rs.Engine.Episodes, len(rs.Records))
	}
}

func TestEpisodeFailureFatalWithoutRetryBudget(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Pool = PoolConfig{Engines: 1, MaxRetries: 0}
	var calls int
	cfg.testFactoryWrap = failFirstOpens(1, &calls)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "injected transient failure") {
		t.Errorf("Run = %v, want the injected failure with MaxRetries=0", err)
	}
}

// TestFatalErrorCancelsDispatch pins the cancellation satellite: after the
// first fatal episode error the scheduler must stop dispatching, not drain
// the whole job list. With one worker and a factory that always fails, only
// the first job may ever reach an engine.
func TestFatalErrorCancelsDispatch(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Parallelism = 1
	var calls int
	cfg.testFactoryWrap = failFirstOpens(1<<30, &calls)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("campaign with an always-failing factory succeeded")
	}
	if jobs := len(r.jobs()); jobs < 4 {
		t.Fatalf("test needs several jobs, got %d", jobs)
	}
	if calls != 1 {
		t.Errorf("factory saw %d sessions after a fatal first episode, want 1 (dispatch not cancelled)", calls)
	}
}

// TestTransientEpisodeErrorClassification pins which failures the
// scheduler may retry — in particular the TCP death signatures
// (partial-read, reset, broken pipe), which are what a backend dying
// mid-frame actually surfaces as.
func TestTransientEpisodeErrorClassification(t *testing.T) {
	transient := []error{
		&simclient.SessionError{SID: 3, Reason: "boom"},
		simclient.ErrClientClosed,
		transport.ErrClosed,
		io.EOF,
		io.ErrUnexpectedEOF,
		syscall.ECONNRESET,
		syscall.EPIPE,
		net.ErrClosed,
	}
	for _, e := range transient {
		wrapped := fmt.Errorf("campaign: gaussian m1 r0: %w", e)
		if !transientEpisodeError(wrapped) {
			t.Errorf("%v not classified transient", e)
		}
	}
	fatal := []error{
		errors.New("campaign: mission 3: no route"),
		context.Canceled,
	}
	for _, e := range fatal {
		if transientEpisodeError(e) {
			t.Errorf("%v wrongly classified transient", e)
		}
	}
}

func TestRunContextExternalCancel(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestPoolSize pins the one sizing rule the scheduler and cmd/avfi's
// shard-log count share.
func TestPoolSize(t *testing.T) {
	backends := []string{"a:1", "b:1", "c:1"}
	cases := []struct {
		name        string
		pool        PoolConfig
		parallelism int
		want        int
	}{
		{"zero value is one engine", PoolConfig{}, 8, 1},
		{"explicit engines", PoolConfig{Engines: 4}, 8, 4},
		{"auto-sizes to backends", PoolConfig{Backends: backends}, 8, 3},
		{"explicit engines beat backends", PoolConfig{Engines: 2, Backends: backends}, 8, 2},
		{"capped by parallelism", PoolConfig{Backends: backends}, 2, 2},
		{"unbounded parallelism", PoolConfig{Engines: 6}, 0, 6},
	}
	for _, tc := range cases {
		if got := tc.pool.PoolSize(tc.parallelism); got != tc.want {
			t.Errorf("%s: PoolSize(%d) = %d, want %d", tc.name, tc.parallelism, got, tc.want)
		}
	}
}

// TestEnginePoolReplacesDeadEngine drives the pool directly: a backend
// whose connection dies is retired and a fresh engine takes its slot,
// until the bounded replacement budget runs out.
func TestEnginePoolReplacesDeadEngine(t *testing.T) {
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newEnginePool(r.startEngine, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.close()

	victim, err := pool.acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the backend out from under the client and condemn it.
	victim.serverConn.Close()
	pool.fail(victim)
	pool.release(victim)

	// The victim's session traffic is gone; a fresh engine must take the
	// slot and serve an episode end-to-end.
	replacement, err := pool.acquire()
	if err != nil {
		t.Fatalf("acquire after engine death: %v", err)
	}
	if replacement == victim {
		t.Fatal("pool handed back the dead engine")
	}
	rec, err := r.runEpisode(replacement, job{cellIdx: 0, mission: 0, repetition: 0})
	if err != nil {
		t.Fatalf("episode on replacement engine: %v", err)
	}
	if rec.DurationSec <= 0 {
		t.Errorf("replacement episode made no progress: %+v", rec)
	}
	pool.release(replacement)

	ps, _ := pool.snapshot()
	if ps.Replacements != 1 {
		t.Errorf("Replacements = %d, want 1", ps.Replacements)
	}
	replaced := 0
	for _, es := range ps.Engines {
		if es.Replaced {
			replaced++
		}
	}
	if replaced != 1 {
		t.Errorf("stats mark %d engines replaced, want 1", replaced)
	}

	// Exhaust the budget: keep killing whatever the pool hands out.
	for i := 0; i < 2*len(pool.engines)+2; i++ {
		e, err := pool.acquire()
		if err != nil {
			return // budget exhausted, as required
		}
		e.serverConn.Close()
		pool.fail(e)
		pool.release(e)
	}
	t.Error("replacement budget never exhausted")
}

// BenchmarkCampaignPool measures episode throughput of the same campaign
// sharded over 1, 2 and 4 engines — in-process, and against
// loopback-remote simulator workers (the -backends deployment shape, so
// the wire cost of going distributed is on the same chart). Reported as
// episodes/sec; the pool's win is demultiplexing the per-connection
// serialization, so it grows with worker count on multi-core runners. CI's
// bench-pool job renders this benchmark into BENCH_pool.json.
func BenchmarkCampaignPool(b *testing.B) {
	bench := func(b *testing.B, pool PoolConfig) {
		cfg := tinyConfig(b, []InjectorSource{
			Registry(fault.NoopName),
			Registry("gaussian"),
		})
		cfg.Missions = 4
		cfg.Repetitions = 2
		cfg.Parallelism = 8
		cfg.Pool = pool
		cfg.DiscardRecords = true
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		episodes := len(r.jobs())
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start).Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(episodes*b.N)/elapsed, "episodes/sec")
		}
	}
	for _, engines := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("inproc-%d", engines), func(b *testing.B) {
			bench(b, PoolConfig{Engines: engines})
		})
	}
	for _, engines := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("remote-%d", engines), func(b *testing.B) {
			addrs, _ := startTestWorkers(b, engines)
			bench(b, PoolConfig{Backends: addrs})
		})
	}
}
