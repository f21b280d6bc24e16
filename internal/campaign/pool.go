package campaign

import (
	"fmt"
	"sync"
	"time"

	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/simserver"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// PoolConfig shards a campaign across a pool of persistent engines.
type PoolConfig struct {
	// Engines is how many persistent engines (each its own simserver.Server,
	// simclient.Client and connection) the campaign spreads episodes over
	// with least-loaded dispatch. 0 or 1 runs the classic single engine —
	// except with Backends, where 0 sizes the pool to the backend count.
	Engines int
	// MaxRetries bounds how many times one episode is re-dispatched after a
	// transient failure (server-side session abort, dead engine connection)
	// before the whole campaign fails. 0 disables retry.
	MaxRetries int
	// Backends, when non-empty, lists remote simulator worker addresses
	// (see simserver.Worker / avfi -serve): instead of spawning in-process
	// pipe engines, the pool dials these addresses round-robin, one
	// connection per engine slot. Health checks, bounded retry and
	// dead-engine replacement carry over unchanged — a replacement engine
	// dials the next backend in the rotation, so one dead worker degrades
	// the campaign onto the survivors. Episode results travel over
	// the wire (EpisodeResult), so the worker's world configuration is the
	// only thing that must match the campaign's for bit-identical results.
	Backends []string
}

// PoolSize resolves the number of engine slots this configuration runs
// under the given worker parallelism (<= 0 means unbounded): Engines, or
// one per backend when Engines is 0 with Backends set, capped at
// parallelism (slots beyond the worker count would idle), floor 1. The
// scheduler sizes its pool with this; cmd/avfi sizes its shard logs with
// it too, so shard count can only exceed actual slots when the scheduler
// additionally clamps parallelism to a small job batch — the surplus
// shard logs just stay empty, which merge and resume tolerate.
func (p PoolConfig) PoolSize(parallelism int) int {
	n := p.Engines
	if n == 0 && len(p.Backends) > 0 {
		n = len(p.Backends)
	}
	if parallelism > 0 && n > parallelism {
		n = parallelism
	}
	if n < 1 {
		n = 1
	}
	return n
}

// PoolStats describes the engine pool's work for one campaign run. The
// pool-wide episode total lives in ResultSet.Engine (the aggregate
// EngineStats), not here.
type PoolStats struct {
	// Engines holds per-engine stats: live slots first (in slot order),
	// then any engines that died mid-campaign and were replaced.
	Engines []EngineStats
	// Retries counts episode re-dispatches after transient failures.
	Retries int
	// Replacements counts engines that died and were swapped for a fresh
	// backend.
	Replacements int
}

// engine is one slot of a campaign's engine pool: a persistent simulation
// backend — a session client and exactly one connection to its server. For
// in-process engines the server lives here too, at the far end of a pipe;
// for remote backends (PoolConfig.Backends) the server is a
// simserver.Worker in another process and only the dialed connection is
// ours.
type engine struct {
	id         int
	server     *simserver.Server // nil for remote backends
	client     *simclient.Client
	serverConn transport.Conn
	serveCh    chan error
	transport  string
	backend    string // remote worker address ("" for in-process)

	// Pool bookkeeping; guarded by the owning pool's mutex.
	inflight int
	dead     bool
}

// startEngine wires one engine slot: a dialed connection to the next remote
// backend in round-robin rotation when PoolConfig.Backends is set, or an
// in-process server/client pair over a pipe otherwise.
func (r *Runner) startEngine() (*engine, error) {
	if len(r.cfg.Pool.Backends) > 0 {
		return r.dialBackend()
	}
	factory := r.world.NewEpisode
	if r.cfg.testFactoryWrap != nil {
		factory = r.cfg.testFactoryWrap(factory)
	}
	eng := &engine{
		server:    simserver.NewServer(factory, r.worldHash),
		serveCh:   make(chan error, 1),
		transport: "pipe",
	}
	serverConn, clientConn := transport.Pipe()
	eng.serverConn = serverConn
	go func() { eng.serveCh <- eng.server.Serve(serverConn) }()
	eng.client = simclient.NewClient(clientConn)
	return eng, nil
}

// backendDialTimeout bounds one backend connect. Replacement dials run
// under the pool mutex (see replaceLocked), so a worker host that
// blackholes packets must fail in seconds, not the OS connect timeout's
// minutes — within this bound the pool stalls briefly, then degrades onto
// the surviving backends.
const backendDialTimeout = 3 * time.Second

// WorldMismatchError is returned when a dialed worker announces a world
// configuration fingerprint different from the campaign's: every episode
// the pairing ran would silently break bit-identity, so the dial fails
// fast instead. It is not a transient episode error — retrying the same
// worker cannot fix a configuration mismatch.
type WorldMismatchError struct {
	// Backend is the worker address that was dialed.
	Backend string
	// Want is the campaign's world hash; Got the worker's.
	Want, Got uint64
}

// Error implements error.
func (e *WorldMismatchError) Error() string {
	return fmt.Sprintf("campaign: backend %s serves world %016x, campaign needs %016x (world config mismatch)",
		e.Backend, e.Got, e.Want)
}

// dialWorkerEngine dials one remote worker and verifies the world hash in
// its hello against want before any episode is dispatched. No hello within
// backendDialTimeout (simclient.ErrNoHello), a peer of another protocol
// version (proto.ErrCodec, naming both versions) and a different world
// (WorldMismatchError) all fail the dial.
func dialWorkerEngine(addr string, want uint64) (*engine, error) {
	conn, err := transport.DialTimeout(addr, backendDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("campaign: backend %s: %w", addr, err)
	}
	client := simclient.NewClient(conn)
	got, err := client.ServerHello(backendDialTimeout)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("campaign: backend %s: %w", addr, err)
	}
	if got != want {
		client.Close()
		return nil, &WorldMismatchError{Backend: addr, Want: want, Got: got}
	}
	return &engine{
		transport: "remote",
		backend:   addr,
		client:    client,
	}, nil
}

// dialBackend starts one remote engine slot: a connection to the next
// worker address in round-robin rotation. The rotation advances on every
// start — including replacements — so a dead worker's slot migrates onto a
// surviving backend instead of redialing the corpse forever.
func (r *Runner) dialBackend() (*engine, error) {
	backends := r.cfg.Pool.Backends
	addr := backends[int((r.backendSeq.Add(1)-1)%uint64(len(backends)))]
	return dialWorkerEngine(addr, r.worldHash)
}

// stats snapshots the engine's work so far, always from the client side of
// the connection: the same session events reach both ends, and counting at
// the near end makes in-process and remote engines report identically (a
// remote backend has no reachable server to ask anyway).
func (e *engine) stats() EngineStats {
	return EngineStats{
		Engine:                e.id,
		Transport:             e.transport,
		Backend:               e.backend,
		Episodes:              e.client.CompletedSessions(),
		MaxConcurrentSessions: e.client.MaxConcurrent(),
		FailedSessions:        e.client.FailedSessions(),
	}
}

// desc labels the engine's backend for log lines.
func (e *engine) desc() string {
	if e.backend != "" {
		return e.transport + " " + e.backend
	}
	return e.transport
}

// close tears the engine down: closing the client's connection is the
// shutdown signal the server drains on. A remote engine owns only its side
// of the connection — the worker notices the hang-up and retires the
// server it spun up for us.
func (e *engine) close() error {
	e.client.Close()
	if e.server == nil {
		return nil
	}
	err := <-e.serveCh
	e.serverConn.Close()
	return err
}

// healthy reports whether the engine's backend is still serving: not
// condemned, client demux loop alive, and (in-process only) the server's
// Serve loop still running.
func (e *engine) healthy() bool {
	return !e.dead && e.client.Err() == nil && (e.server == nil || !e.server.Done())
}

// backendErr reports why a dead engine's backend stopped, whichever side
// noticed first.
func (e *engine) backendErr() error {
	if err := e.client.Err(); err != nil {
		return err
	}
	if e.server != nil {
		if err := e.server.Err(); err != nil {
			return err
		}
	}
	return fmt.Errorf("connection lost")
}

// enginePool shards campaign episodes over N persistent engines with
// least-loaded dispatch. When an engine's backend dies mid-campaign the
// pool retires it and starts a fresh engine in its slot, within a bounded
// replacement budget, so one dead backend degrades the campaign instead of
// killing it.
type enginePool struct {
	start func() (*engine, error)

	mu              sync.Mutex
	engines         []*engine // live slots, fixed length
	retired         []*engine // replaced engines, kept for stats and close
	retries         int
	replacements    int
	maxReplacements int
}

// newEnginePool starts n engines. On any startup failure the already
// started engines are torn down.
func newEnginePool(start func() (*engine, error), n int) (*enginePool, error) {
	if n < 1 {
		n = 1
	}
	p := &enginePool{start: start, maxReplacements: 2 * n}
	for i := 0; i < n; i++ {
		e, err := start()
		if err != nil {
			p.close()
			return nil, fmt.Errorf("campaign: engine %d: %w", i, err)
		}
		e.id = i
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// acquire returns the least-loaded live engine, first replacing any dead
// ones within the replacement budget. A dead slot that cannot be revived
// (budget exhausted, or the fresh backend failed to start) degrades the
// pool instead of failing it: dispatch continues on the remaining live
// engines, and acquire errors only when none are left. The caller must
// release the engine.
func (p *enginePool) acquire() (*engine, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *engine
	var lastErr error
	for i, e := range p.engines {
		if !e.healthy() {
			ne, err := p.replaceLocked(i)
			if err != nil {
				lastErr = err
				continue
			}
			e = ne
		}
		if best == nil || e.inflight < best.inflight {
			best = e
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("campaign: engine pool is empty")
	}
	best.inflight++
	return best, nil
}

// release returns an engine acquired with acquire.
func (p *enginePool) release(e *engine) {
	p.mu.Lock()
	e.inflight--
	p.mu.Unlock()
}

// fail marks an engine's backend dead; the next acquire replaces it.
func (p *enginePool) fail(e *engine) {
	p.mu.Lock()
	e.dead = true
	p.mu.Unlock()
}

// addSlot grows the pool by one freshly started engine — the campaign
// service's join path: a worker announcing itself mid-campaign becomes a
// new live slot that the very next acquire can dispatch onto, the grow
// direction complementing replaceLocked's dead-slot migration.
func (p *enginePool) addSlot(e *engine) {
	p.mu.Lock()
	e.id = len(p.engines) + len(p.retired)
	p.engines = append(p.engines, e)
	p.mu.Unlock()
}

// liveSlots counts healthy engine slots per backend address — how much of
// the pool each remote worker is currently serving. The service's registry
// uses it to decide which registered workers need a (re)dial.
func (p *enginePool) liveSlots() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[string]int)
	for _, e := range p.engines {
		if e.healthy() {
			m[e.backend]++
		}
	}
	return m
}

// noteRetry counts one episode re-dispatch.
func (p *enginePool) noteRetry() {
	telemetry.CampaignRetries.Inc()
	p.mu.Lock()
	p.retries++
	p.mu.Unlock()
}

// replaceLocked swaps slot i's dead engine for a fresh backend. The dead
// engine stays in its slot if the budget is exhausted or the replacement
// fails to start; acquire then skips it. Requires p.mu — engine startup is
// a pipe allocation or a remote dial bounded by backendDialTimeout, both
// short against the seconds an episode runs, and backend death is
// exceptional, so blocking the pool briefly beats unlock/relock juggling.
func (p *enginePool) replaceLocked(i int) (*engine, error) {
	old := p.engines[i]
	old.dead = true
	if p.replacements >= p.maxReplacements {
		return nil, fmt.Errorf("campaign: engine pool: replacement budget (%d) exhausted; last backend error: %v",
			p.maxReplacements, old.backendErr())
	}
	ne, err := p.start()
	if err != nil {
		return nil, fmt.Errorf("campaign: replacing engine %d: %w", i, err)
	}
	ne.id = i
	p.engines[i] = ne
	p.retired = append(p.retired, old)
	p.replacements++
	telemetry.CampaignReplacements.Inc()
	telemetry.Warnf("campaign: engine %d (%s) died (%v); replaced with %s (%d/%d replacements used)",
		i, old.desc(), old.backendErr(), ne.desc(), p.replacements, p.maxReplacements)
	return ne, nil
}

// snapshot reports the pool's work: per-engine stats plus the aggregate
// EngineStats that keeps ResultSet.Engine meaningful for pooled runs
// (episodes summed, concurrency high-water maxed across engines).
func (p *enginePool) snapshot() (PoolStats, EngineStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := PoolStats{Retries: p.retries, Replacements: p.replacements}
	var agg EngineStats
	collect := func(e *engine, replaced bool) {
		es := e.stats()
		es.Dead = !e.healthy()
		es.Replaced = replaced
		ps.Engines = append(ps.Engines, es)
		agg.Episodes += es.Episodes
		agg.FailedSessions += es.FailedSessions
		if es.MaxConcurrentSessions > agg.MaxConcurrentSessions {
			agg.MaxConcurrentSessions = es.MaxConcurrentSessions
		}
		agg.Transport = es.Transport
	}
	for _, e := range p.engines {
		collect(e, false)
	}
	for _, e := range p.retired {
		collect(e, true)
	}
	return ps, agg
}

// close tears down every engine, live and retired. It returns the first
// shutdown error from a live engine; retired engines' errors are the
// failures the pool already recovered from and are dropped.
func (p *enginePool) close() error {
	p.mu.Lock()
	live := p.engines
	retired := p.retired
	p.engines, p.retired = nil, nil
	p.mu.Unlock()
	var firstErr error
	for _, e := range live {
		if err := e.close(); err != nil && firstErr == nil && !e.dead {
			firstErr = err
		}
	}
	for _, e := range retired {
		_ = e.close()
	}
	return firstErr
}
