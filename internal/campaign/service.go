// The campaign control plane: a long-lived Service owning one shared
// engine fleet that many concurrent campaigns dispatch onto. Workers
// announce themselves to the service (and may join mid-campaign — the
// grow direction complementing the pool's dead-slot shrink migration),
// campaigns are submitted as declarative specs and interleave fairly via
// a round-robin dispatch gate, and results stream out of an in-memory
// sink in either canonical record format. The HTTP face of all of this
// lives in api.go and rides the telemetry endpoint.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/telemetry"
)

// sharedFleet is a Service's dispatch substrate: one long-lived engine
// pool shared by every submitted campaign, plus the fairness gate that
// interleaves their episodes round-robin at the configured parallelism.
type sharedFleet struct {
	pool        *enginePool
	gate        *fairGate
	parallelism int
}

// ServiceConfig parameterizes a campaign Service.
type ServiceConfig struct {
	// World is the fleet's world configuration. Its hash is verified
	// against every worker's hello at dial time: a mismatched worker is
	// rejected (WorldMismatchError) rather than silently breaking
	// bit-identity.
	World sim.WorldConfig
	// Agent supplies the system under test, shared by every campaign
	// (resolved — trained, for a pretrain spec — once at service start).
	Agent AgentSource
	// Parallelism bounds concurrent episodes fleet-wide, shared fairly
	// across campaigns (0 = NumCPU).
	Parallelism int
	// DefaultRetries is the per-episode transient-failure retry bound for
	// campaigns whose spec doesn't set one (0 = 3; a long-lived fleet
	// should survive a worker dying mid-episode by default).
	DefaultRetries int
	// RedialInterval is how often the service re-dials registered workers
	// with no live engine slot — backends that were down at announce time
	// or died mid-campaign rejoin automatically (0 = 2s).
	RedialInterval time.Duration
}

// serviceCampaignSeq numbers campaigns process-wide ("c1", "c2", ...), so
// per-campaign telemetry series stay unique even across Service instances
// in one process.
var serviceCampaignSeq atomic.Uint64

// ErrServiceClosed is returned by submissions and announcements after
// Service.Close.
var ErrServiceClosed = errors.New("campaign: service closed")

// ErrUnknownCampaign is returned for campaign ids the service never
// issued.
var ErrUnknownCampaign = errors.New("campaign: unknown campaign id")

// regWorker is one registry entry. Liveness is not stored here: a worker
// is "up" iff the fleet pool has a healthy engine slot dialed to it.
type regWorker struct {
	addr    string
	lastErr string // last dial failure ("" after a successful dial)
	dialing bool   // a dial is in flight; don't start another
	joined  time.Time
}

// serviceCampaign is one submitted campaign's lifecycle record.
type serviceCampaign struct {
	id        string
	spec      CampaignSpec
	runner    *Runner
	sink      *memorySink
	submitted time.Time
	episodes  atomic.Int64 // fresh episodes aggregated so far
	done      chan struct{}

	mu     sync.Mutex
	result *ResultSet
	err    error
}

// Service is the long-lived campaign control plane: it owns a worker
// registry and one shared engine fleet, accepts campaign submissions, and
// schedules their episodes fairly over the fleet. Locking order, where
// both are needed: the fleet pool's mutex is acquired before the
// service's (the pool's start hook dials under the pool mutex) — so no
// Service method may call into the pool while holding s.mu.
type Service struct {
	cfg       ServiceConfig
	worldHash uint64
	agent     *agent.Agent
	fleet     *sharedFleet
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	mu          sync.Mutex
	workers     map[string]*regWorker
	workerOrder []string // registration order; dial rotation
	dialSeq     int
	campaigns   map[string]*serviceCampaign
	order       []string // submission order
	closed      bool

	// testOnEpisode, when set (tests only), observes every aggregated
	// episode (campaign id, fresh episodes so far) — the chaos tests'
	// mid-campaign trigger.
	testOnEpisode func(id string, episodes int)
}

// NewService builds the control plane: resolves the agent (training it
// now if a pretrain spec is given, so the first submission doesn't pay
// for it), fingerprints the world for the worker handshake, and starts
// the registry's re-dial loop. The fleet starts empty — workers join via
// AddWorker (the POST /workers announce path).
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Agent.Agent == nil && cfg.Agent.Pretrain == nil {
		return nil, fmt.Errorf("campaign: service: no agent source")
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
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.DefaultRetries <= 0 {
		cfg.DefaultRetries = 3
	}
	if cfg.RedialInterval <= 0 {
		cfg.RedialInterval = 2 * time.Second
	}
	s := &Service{
		cfg:       cfg,
		worldHash: cfg.World.Hash(),
		agent:     a,
		workers:   make(map[string]*regWorker),
		campaigns: make(map[string]*serviceCampaign),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// The fleet pool starts with zero slots and grows as workers
	// announce; its start hook serves replaceLocked, migrating a dead
	// slot onto the next registered worker in rotation. The replacement
	// budget is effectively unbounded: the pool lives as long as the
	// service, not one campaign, so a per-run budget would eventually
	// strand a healthy fleet.
	s.fleet = &sharedFleet{
		pool:        &enginePool{start: s.dialNext, maxReplacements: 1 << 30},
		gate:        newFairGate(cfg.Parallelism),
		parallelism: cfg.Parallelism,
	}
	s.wg.Add(1)
	go s.maintain()
	return s, nil
}

// WorldHash returns the fleet's world fingerprint (what every worker must
// announce).
func (s *Service) WorldHash() uint64 { return s.worldHash }

// Close stops the service: running campaigns are cancelled, the re-dial
// loop stops, and the fleet's engines are torn down.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return s.fleet.pool.close()
}

// AddWorker registers a worker address (the POST /workers announce path;
// idempotent) and dials it immediately. A worker announcing a mismatched
// world hash is rejected outright — the registration is dropped and the
// WorldMismatchError returned. Any other dial failure (the worker is down
// or unreachable) keeps the registration: the worker joins the periodic
// re-dial rotation and its first successful dial adds it to the fleet,
// mid-campaign included.
func (s *Service) AddWorker(addr string) (WorkerInfo, error) {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return WorkerInfo{}, fmt.Errorf("campaign: service: empty worker address")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return WorkerInfo{}, ErrServiceClosed
	}
	if _, ok := s.workers[addr]; !ok {
		s.workers[addr] = &regWorker{addr: addr, joined: time.Now()}
		s.workerOrder = append(s.workerOrder, addr)
		telemetry.ServiceWorkers.Set(int64(len(s.workers)))
		telemetry.Infof("campaign: service: worker %s registered (%d total)", addr, len(s.workers))
	}
	s.mu.Unlock()

	if err := s.ensureWorker(addr); err != nil {
		var wm *WorldMismatchError
		if errors.As(err, &wm) {
			s.dropWorker(addr)
			return WorkerInfo{}, err
		}
		// Stays registered as down; the re-dial loop keeps trying.
		telemetry.Warnf("campaign: service: worker %s registered but unreachable (will re-dial): %v", addr, err)
	}
	s.noteWorkersUp()
	return s.workerInfo(addr), nil
}

// Workers snapshots the registry with per-worker fleet liveness.
func (s *Service) Workers() []WorkerInfo {
	live := s.fleet.pool.liveSlots()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workerOrder))
	for _, addr := range s.workerOrder {
		w := s.workers[addr]
		out = append(out, WorkerInfo{
			Addr:    addr,
			Up:      live[addr] > 0,
			Slots:   live[addr],
			LastErr: w.lastErr,
		})
	}
	return out
}

// WorkerInfo is one registry entry's API view.
type WorkerInfo struct {
	// Addr is the worker's announce address.
	Addr string `json:"addr"`
	// Up reports the fleet holds at least one live engine slot to it.
	Up bool `json:"up"`
	// Slots is the number of live engine slots dialed to this worker.
	Slots int `json:"slots"`
	// LastErr is the most recent dial failure ("" once a dial succeeds).
	LastErr string `json:"last_err,omitempty"`
}

// workerInfo builds one worker's API view.
func (s *Service) workerInfo(addr string) WorkerInfo {
	live := s.fleet.pool.liveSlots()
	s.mu.Lock()
	defer s.mu.Unlock()
	info := WorkerInfo{Addr: addr, Up: live[addr] > 0, Slots: live[addr]}
	if w, ok := s.workers[addr]; ok {
		info.LastErr = w.lastErr
	}
	return info
}

// dropWorker removes a rejected registration.
func (s *Service) dropWorker(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.workers[addr]; !ok {
		return
	}
	delete(s.workers, addr)
	for i, a := range s.workerOrder {
		if a == addr {
			s.workerOrder = append(s.workerOrder[:i:i], s.workerOrder[i+1:]...)
			break
		}
	}
	telemetry.ServiceWorkers.Set(int64(len(s.workers)))
}

// ensureWorker guarantees the fleet holds a live engine slot to addr,
// dialing one if needed. Concurrent calls for one worker coalesce (one
// dial in flight at a time). Returns the dial error, WorldMismatchError
// included.
func (s *Service) ensureWorker(addr string) error {
	if s.fleet.pool.liveSlots()[addr] > 0 {
		return nil
	}
	s.mu.Lock()
	w, ok := s.workers[addr]
	if !ok || w.dialing {
		s.mu.Unlock()
		return nil
	}
	w.dialing = true
	s.mu.Unlock()

	eng, err := s.dialWorker(addr)

	s.mu.Lock()
	if w, ok := s.workers[addr]; ok {
		w.dialing = false
		if err != nil {
			w.lastErr = err.Error()
		} else {
			w.lastErr = ""
		}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.fleet.pool.addSlot(eng)
	telemetry.Infof("campaign: service: worker %s joined the fleet", addr)
	return nil
}

// dialWorker dials one worker with hash verification, counting the
// attempt.
func (s *Service) dialWorker(addr string) (*engine, error) {
	telemetry.ServiceWorkerDials.Inc()
	eng, err := dialWorkerEngine(addr, s.worldHash)
	if err != nil {
		telemetry.ServiceWorkerDialFailures.Inc()
	}
	return eng, err
}

// dialNext serves the fleet pool's replaceLocked: a dead slot migrates to
// the next registered worker in rotation. Runs under the pool mutex, so
// it must not call back into the pool; it marks the dial outcome in the
// registry so /workers reflects it.
func (s *Service) dialNext() (*engine, error) {
	s.mu.Lock()
	if len(s.workerOrder) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("campaign: service: no workers registered")
	}
	addr := s.workerOrder[s.dialSeq%len(s.workerOrder)]
	s.dialSeq++
	s.mu.Unlock()

	eng, err := s.dialWorker(addr)

	s.mu.Lock()
	if w, ok := s.workers[addr]; ok {
		if err != nil {
			w.lastErr = err.Error()
		} else {
			w.lastErr = ""
		}
	}
	s.mu.Unlock()
	return eng, err
}

// maintain is the registry's re-dial loop: every RedialInterval it dials
// any registered worker without a live fleet slot — covering workers that
// were down when they announced, and workers that died and came back.
func (s *Service) maintain() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RedialInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		addrs := append([]string(nil), s.workerOrder...)
		s.mu.Unlock()
		for _, addr := range addrs {
			if s.ctx.Err() != nil {
				return
			}
			// Mismatch at re-dial time keeps the worker registered but
			// down, with the error visible in /workers — unlike announce
			// time there is no caller to bounce it back to.
			_ = s.ensureWorker(addr)
		}
		s.noteWorkersUp()
	}
}

// noteWorkersUp refreshes the workers-up gauge.
func (s *Service) noteWorkersUp() {
	live := s.fleet.pool.liveSlots()
	s.mu.Lock()
	up := 0
	for _, addr := range s.workerOrder {
		if live[addr] > 0 {
			up++
		}
	}
	s.mu.Unlock()
	telemetry.ServiceWorkersUp.Set(int64(up))
}

// Submit accepts a campaign spec, assigns it an id, and starts it on the
// shared fleet. The campaign waits (state "idle") until the fleet has at
// least one live engine slot, then runs interleaved with every other
// active campaign; poll Campaign(id) / GET /campaigns/{id} for progress
// and fetch records via WriteResults once done.
func (s *Service) Submit(spec CampaignSpec) (string, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", ErrServiceClosed
	}
	id := fmt.Sprintf("c%d", serviceCampaignSeq.Add(1))
	sink := &memorySink{}
	cfg, adaptive, err := spec.Lower()
	if err != nil {
		return "", err
	}
	// Run on the service's world, agent and fleet, streaming records to
	// the results buffer, the only copy.
	if cfg.Pool.MaxRetries <= 0 {
		cfg.Pool.MaxRetries = s.cfg.DefaultRetries
	}
	cfg.World, cfg.Agent = s.cfg.World, AgentSource{Agent: s.agent}
	cfg.Sink, cfg.DiscardRecords = sink, true
	cfg.fleet, cfg.fleetID = s.fleet, id
	c := &serviceCampaign{
		id:        id,
		spec:      spec,
		sink:      sink,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	// Per-campaign episode counter: ids are process-unique, so dynamic
	// registration cannot collide.
	episodes := telemetry.Default.Counter("avfi_service_campaign_episodes_total",
		"Episodes completed per submitted campaign.", "campaign", id)
	cfg.Progress = func(CellProgress) {
		episodes.Inc()
		n := int(c.episodes.Add(1))
		s.mu.Lock()
		hook := s.testOnEpisode
		s.mu.Unlock()
		if hook != nil {
			hook(id, n)
		}
	}
	runner, err := NewRunner(cfg)
	if err != nil {
		return "", err
	}
	c.runner = runner

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrServiceClosed
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	telemetry.ServiceCampaignsSubmitted.Inc()
	telemetry.ServiceCampaignsActive.Add(1)
	telemetry.Infof("campaign: service: campaign %s submitted (%d episodes planned-ish, adaptive=%v)",
		id, spec.Missions*spec.Repetitions, spec.Adaptive != nil)
	go s.runCampaign(c, adaptive)
	return id, nil
}

// runCampaign waits for fleet capacity, runs the campaign, and records
// its terminal state.
func (s *Service) runCampaign(c *serviceCampaign, adaptive *AdaptiveConfig) {
	defer s.wg.Done()
	defer close(c.done)
	defer telemetry.ServiceCampaignsActive.Add(-1)

	var rs *ResultSet
	err := s.awaitCapacity(s.ctx)
	if err == nil {
		if adaptive != nil {
			rs, err = c.runner.RunAdaptive(s.ctx, *adaptive)
		} else {
			rs, err = c.runner.RunContext(s.ctx)
		}
	}
	c.mu.Lock()
	c.result, c.err = rs, err
	c.mu.Unlock()
	if err != nil {
		telemetry.ServiceCampaignsFailed.Inc()
		telemetry.Warnf("campaign: service: campaign %s failed: %v", c.id, err)
		return
	}
	telemetry.ServiceCampaignsDone.Inc()
	telemetry.Infof("campaign: service: campaign %s done (%d records)", c.id, len(c.sink.snapshot()))
}

// awaitCapacity blocks until the fleet has at least one live engine slot.
// A campaign submitted before any worker announced (or while every worker
// is down) queues here instead of failing on an empty pool.
func (s *Service) awaitCapacity(ctx context.Context) error {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if len(s.fleet.pool.liveSlots()) > 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-t.C:
		}
	}
}

// CampaignInfo is one submitted campaign's API view: the spec it was
// submitted with plus the live CampaignStatus snapshot — exactly what
// GET /campaigns/{id} serves (shape pinned by a golden test).
type CampaignInfo struct {
	// ID is the service-assigned campaign id.
	ID string `json:"id"`
	// Spec echoes the submission.
	Spec CampaignSpec `json:"spec"`
	// Records is how many episode records the results buffer holds so
	// far (grows while running; final once state is "done").
	Records int `json:"records"`
	// Status is the runner's live snapshot ("idle" until the fleet has
	// capacity, then "running" / "done" / "failed").
	Status CampaignStatus `json:"status"`
}

// Campaign returns one campaign's API view.
func (s *Service) Campaign(id string) (CampaignInfo, error) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return CampaignInfo{}, ErrUnknownCampaign
	}
	return CampaignInfo{
		ID:      c.id,
		Spec:    c.spec,
		Records: c.sink.count(),
		Status:  c.runner.Status(),
	}, nil
}

// Campaigns lists every submitted campaign in submission order.
func (s *Service) Campaigns() []CampaignInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := s.Campaign(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Wait blocks until the campaign finishes (or ctx is done) and returns
// its ResultSet. Records are nil in it by design — the service streams
// them through the results buffer; use Results or WriteResults.
func (s *Service) Wait(ctx context.Context, id string) (*ResultSet, error) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownCampaign
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result, c.err
}

// Results snapshots the campaign's episode records so far, in the
// canonical deterministic order. Mid-run the snapshot is a consistent
// prefix of the final set.
func (s *Service) Results(id string) ([]metrics.EpisodeRecord, error) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownCampaign
	}
	return c.sink.snapshot(), nil
}

// WriteResults streams the campaign's records to w in the requested
// format — canonical order, so two fetches of a finished campaign are
// byte-identical, and the binary stream merges with avfi records into the
// same JSONL export the service writes.
func (s *Service) WriteResults(w io.Writer, id string, format RecordFormat) error {
	records, err := s.Results(id)
	if err != nil {
		return err
	}
	sink := format.NewRecordSink(w)
	for _, rec := range records {
		if err := sink.Consume(rec); err != nil {
			return err
		}
	}
	return sink.Close()
}

// ServiceStatus is the /statusz section: registry plus campaign states.
type ServiceStatus struct {
	WorldHash string        `json:"world_hash"`
	Workers   []WorkerInfo  `json:"workers"`
	Campaigns []CampaignRef `json:"campaigns"`
}

// CampaignRef is a campaign's one-line status entry.
type CampaignRef struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// Status snapshots the service for /statusz.
func (s *Service) Status() ServiceStatus {
	st := ServiceStatus{
		WorldHash: fmt.Sprintf("%016x", s.worldHash),
		Workers:   s.Workers(),
	}
	for _, info := range s.Campaigns() {
		st.Campaigns = append(st.Campaigns, CampaignRef{ID: info.ID, State: info.Status.State})
	}
	return st
}

// memorySink buffers a service campaign's records for the results API.
// The campaign's aggregation shard is the only writer; API snapshots may
// race it, hence the mutex.
type memorySink struct {
	mu      sync.Mutex
	records []metrics.EpisodeRecord
}

// Consume implements RecordSink.
func (m *memorySink) Consume(rec metrics.EpisodeRecord) error {
	m.mu.Lock()
	m.records = append(m.records, rec)
	m.mu.Unlock()
	return nil
}

// Close implements RecordSink.
func (m *memorySink) Close() error { return nil }

// count reports records buffered so far.
func (m *memorySink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// snapshot copies the buffered records in canonical order.
func (m *memorySink) snapshot() []metrics.EpisodeRecord {
	m.mu.Lock()
	cp := append([]metrics.EpisodeRecord(nil), m.records...)
	m.mu.Unlock()
	sortRecords(cp)
	return cp
}
