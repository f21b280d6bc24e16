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
	// MaxRetries bounds how many times one episode is re-dispatched after a
	// transient failure (server-side session abort, dead engine connection)
	// before the whole campaign fails. 0 disables retry.
	MaxRetries int
	// Backends, when non-empty, lists remote simulator worker addresses
	// (see simserver.Worker / avfi serve): instead of one in-process pipe
	// engine, the pool holds one engine slot per address, each a single
	// dialed connection. A slot never moves: a dead worker's slot is
	// redialed at its own address, once per death, and stays dead if that
	// fails, so the campaign degrades onto the surviving workers. Episode
	// results travel over the wire (EpisodeResult), so the worker's world
	// configuration is the only thing that must match the campaign's for
	// bit-identical results.
	Backends []string
}

// PoolSize resolves the number of engine slots this configuration runs
// under the given worker parallelism (<= 0 means unbounded): one per
// backend, capped at parallelism (slots beyond the worker count would
// idle), floor 1 — the one in-process pipe engine without backends. The
// scheduler sizes its pool with this; cmd/avfi sizes its shard logs with
// it too, so shard count can only exceed actual slots when the scheduler
// additionally clamps parallelism to a small job batch — the surplus
// shard logs just stay empty, which merge and resume tolerate.
func (p PoolConfig) PoolSize(parallelism int) int {
	n := len(p.Backends)
	if parallelism > 0 && n > parallelism {
		n = parallelism
	}
	return max(n, 1)
}

// PoolStats describes the engine pool's work for one campaign run. The
// pool-wide episode total lives in ResultSet.Engine (the aggregate
// EngineStats), not here.
type PoolStats struct {
	// Engines holds per-engine stats: the slots first (in slot order),
	// then any engines that died mid-campaign and were redialed.
	Engines []EngineStats
	// Retries counts episode re-dispatches after transient failures.
	Retries int
	// Replacements counts redials of dead slots, failed ones included:
	// each spends one of the pool's 2n, and a failed one leaves its slot
	// dead for the rest of the run.
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
	lost     error // why a dead slot is never redialed again (nil: it may be)
}

// startEngine wires engine slot i: a dialed connection to the slot's own
// remote backend, PoolConfig.Backends[i], or the in-process server/client
// pair over a pipe when there are no backends.
func (r *Runner) startEngine(i int) (*engine, error) {
	if backends := r.cfg.Pool.Backends; len(backends) > 0 {
		return dialWorkerEngine(backends[i], r.worldHash)
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

// backendDialTimeout bounds one backend connect. A campaign's redials run
// under its pool mutex (see redialLocked), so a worker host that
// blackholes packets must fail in seconds, not the OS connect timeout's
// minutes — within this bound the pool stalls briefly, once per death,
// then degrades onto the surviving backends.
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

// enginePool shards campaign episodes over N persistent engine slots with
// least-loaded dispatch. A slot is one backend and never moves: when its
// engine dies mid-campaign the pool redials that same backend (or starts a
// fresh pipe engine) within a bounded budget, so one dead backend degrades
// the campaign instead of killing it.
type enginePool struct {
	// start (re)starts slot i's engine. It is nil for a Service's fleet,
	// which redials outside the pool mutex (Service.maintain, install).
	start func(i int) (*engine, error)

	mu         sync.Mutex
	engines    []*engine // one per slot, in slot order
	retired    []*engine // redialed slots' dead engines, kept for stats and close
	retries    int
	redials    int // attempted, failed ones included
	maxRedials int // 2 per slot
}

// newEnginePool starts n engines. On any startup failure the already
// started engines are torn down.
func newEnginePool(start func(int) (*engine, error), n int) (*enginePool, error) {
	p := &enginePool{start: start, maxRedials: 2 * n}
	for i := 0; i < n; i++ {
		e, err := start(i)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("campaign: engine %d: %w", i, err)
		}
		e.id = i
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// acquire returns the least-loaded live engine, first redialing any dead
// slot not yet given up on. A slot that cannot be revived degrades the
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
			ne, err := p.redialLocked(i)
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

// fail marks an engine's backend dead; the next acquire redials its slot.
func (p *enginePool) fail(e *engine) {
	p.mu.Lock()
	e.dead = true
	p.mu.Unlock()
}

// install puts a freshly dialed engine into its backend's slot, appending
// a slot for a backend the pool has not seen, and closes the dead engine
// it displaces — the campaign service's join and redial path, which dials
// before calling, outside the pool mutex.
func (p *enginePool) install(e *engine) {
	p.mu.Lock()
	var old *engine
	for i, cur := range p.engines {
		if cur.backend == e.backend {
			old, e.id, p.engines[i] = cur, i, e
			break
		}
	}
	if old == nil {
		e.id = len(p.engines)
		p.engines = append(p.engines, e)
	}
	p.mu.Unlock()
	if old != nil {
		_ = old.close()
	}
}

// liveBackends reports the backend addresses whose slot holds a healthy
// engine — the service registry's per-worker up/down view.
func (p *enginePool) liveBackends() map[string]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[string]bool)
	for _, e := range p.engines {
		if e.healthy() {
			m[e.backend] = true
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

// redialLocked revives dead slot i in place: one fresh engine on the
// slot's own backend. Each death gets one attempt, which spends the redial
// budget whether or not it succeeds; when it fails, or the budget is
// spent, the slot is lost and every later acquire skips it without
// dialing, so a black-holed worker costs one backendDialTimeout per death.
// A fleet pool (nil start) never dials here. Requires p.mu — engine
// startup is a pipe allocation or a dial bounded by backendDialTimeout,
// short against the seconds an episode runs, and backend death is
// exceptional, so blocking the pool briefly beats unlock/relock juggling.
func (p *enginePool) redialLocked(i int) (*engine, error) {
	old := p.engines[i]
	old.dead = true
	switch {
	case old.lost != nil:
		return nil, old.lost
	case p.start == nil:
		return nil, fmt.Errorf("campaign: engine %d (%s) is down: %v", i, old.desc(), old.backendErr())
	case p.redials >= p.maxRedials:
		old.lost = fmt.Errorf("campaign: engine pool: redial budget (%d) exhausted; last backend error: %v",
			p.maxRedials, old.backendErr())
		return nil, old.lost
	}
	p.redials++
	telemetry.CampaignReplacements.Inc()
	ne, err := p.start(i)
	if err != nil {
		old.lost = fmt.Errorf("campaign: redialing engine %d (%s): %w", i, old.desc(), err)
		telemetry.Warnf("%v; slot stays dead (%d/%d redials used)", old.lost, p.redials, p.maxRedials)
		return nil, old.lost
	}
	ne.id = i
	p.engines[i] = ne
	p.retired = append(p.retired, old)
	telemetry.Warnf("campaign: engine %d (%s) died (%v); redialed (%d/%d redials used)",
		i, old.desc(), old.backendErr(), p.redials, p.maxRedials)
	return ne, nil
}

// snapshot reports the pool's work: per-engine stats plus the aggregate
// EngineStats that keeps ResultSet.Engine meaningful for pooled runs
// (episodes summed, concurrency high-water maxed across engines).
func (p *enginePool) snapshot() (PoolStats, EngineStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := PoolStats{Retries: p.retries, Replacements: p.redials}
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
