package campaign

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// transientEpisodeError reports whether err is a per-episode failure the
// scheduler may re-dispatch (bounded by PoolConfig.MaxRetries) rather than
// failing the campaign: server-side session aborts and dead-connection
// errors. A scenario-deterministic failure retries to the same outcome and
// exhausts the bounded budget, so misclassification only costs a few
// attempts, never correctness.
func transientEpisodeError(err error) bool {
	var se *simclient.SessionError
	return errors.As(err, &se) ||
		errors.Is(err, simclient.ErrClientClosed) ||
		errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, io.EOF) ||
		// A TCP backend dying mid-frame surfaces as a partial read, a
		// reset, or a broken pipe — never a clean EOF.
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, net.ErrClosed)
}

// runSession dispatches episodes onto a started engine pool with bounded
// retry of transient failures. It is re-entrant: the sweep runs one batch
// on it, the adaptive round loop one batch per round, so an adaptive
// campaign dials its backends exactly once, not once per round.
type runSession struct {
	pool        *enginePool
	run         func(*engine, job) (metrics.EpisodeRecord, error)
	maxRetries  int
	parallelism int
	// gate, when non-nil, marks a session borrowing a Service's fleet
	// pool: dispatch is throttled round-robin across campaigns (gateID is
	// this campaign's identity at the gate), and close leaves the pool,
	// which outlives this campaign, alone. A slot is held across retry
	// attempts — a retried episode is still one episode of fleet work.
	gate   *fairGate
	gateID string
}

// newRunSession sizes the worker pool and starts the engines. maxBatch
// bounds useful parallelism: no single runJobs call will carry more jobs
// than it, so workers (and engines) beyond it would idle. Campaigns
// submitted to a Service (cfg.fleet) borrow the fleet's long-lived pool
// instead of starting engines of their own.
func (r *Runner) newRunSession(maxBatch int) (*runSession, error) {
	s := &runSession{run: r.runEpisode, maxRetries: r.cfg.Pool.MaxRetries}
	if r.cfg.testRunEpisode != nil {
		s.run = r.cfg.testRunEpisode
	}
	fl := r.cfg.fleet
	parallelism := r.cfg.Parallelism
	if fl != nil {
		parallelism = fl.parallelism
	} else if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	s.parallelism = max(1, min(parallelism, maxBatch))
	if fl != nil {
		s.pool, s.gate, s.gateID = fl.pool, fl.gate, r.cfg.fleetID
		return s, nil
	}
	pool, err := newEnginePool(r.startEngine, r.cfg.Pool.PoolSize(s.parallelism))
	if err != nil {
		return nil, err
	}
	s.pool = pool
	return s, nil
}

// runJob executes one episode, re-dispatching it (onto the then
// least-loaded, possibly freshly redialed engine) after transient failures.
// Episodes are a pure function of their seed, so a retried episode produces
// the identical record a first-try success would have.
func (s *runSession) runJob(ctx context.Context, j job) (metrics.EpisodeRecord, error) {
	if s.gate != nil {
		if err := s.gate.acquire(ctx, s.gateID); err != nil {
			return metrics.EpisodeRecord{}, err
		}
		defer s.gate.release()
	}
	spans := telemetry.Enabled()
	for attempt := 0; ; attempt++ {
		if err := context.Cause(ctx); err != nil {
			return metrics.EpisodeRecord{}, err
		}
		var tAcq time.Time
		if spans {
			tAcq = time.Now()
		}
		eng, err := s.pool.acquire()
		if err != nil {
			return metrics.EpisodeRecord{}, err
		}
		if spans {
			telemetry.PhaseDispatch.Observe(time.Since(tAcq).Seconds())
		}
		rec, err := s.run(eng, j)
		if err != nil && eng.client.Err() != nil {
			// The engine's connection is gone: condemn the backend, not
			// just this episode.
			s.pool.fail(eng)
			telemetry.Warnf("campaign: engine %d (%s) condemned after episode failure: %v",
				eng.id, eng.desc(), eng.client.Err())
		}
		s.pool.release(eng)
		if err == nil {
			return rec, nil
		}
		if !transientEpisodeError(err) || attempt >= s.maxRetries {
			return metrics.EpisodeRecord{}, err
		}
		s.pool.noteRetry()
		telemetry.Infof("campaign: retrying episode cell=%d mission=%d rep=%d (attempt %d/%d) after transient failure: %v",
			j.cellIdx, j.mission, j.repetition, attempt+1, s.maxRetries, err)
	}
}

// runJobs dispatches one batch of episodes onto the session's pool,
// delivering each finished record to consume (from worker goroutines,
// concurrently). The first fatal episode error cancels ctx via cancel:
// in-flight episodes finish, the rest of the batch is abandoned, and the
// cause is readable from the context. runJobs itself always returns after
// the batch drains — callers decide whether a cancelled context aborts the
// campaign or just this batch.
func (s *runSession) runJobs(ctx context.Context, cancel context.CancelCauseFunc, jobs []job,
	consume func(context.Context, metrics.EpisodeRecord)) {
	workers := s.parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var j job
				var ok bool
				select {
				case <-ctx.Done():
					return
				case j, ok = <-jobCh:
					if !ok {
						return
					}
				}
				if !j.enqueued.IsZero() {
					telemetry.PhaseQueueWait.Observe(time.Since(j.enqueued).Seconds())
				}
				rec, err := s.runJob(ctx, j)
				if err != nil {
					cancel(err)
					return
				}
				consume(ctx, rec)
			}
		}()
	}
	spans := telemetry.Enabled()
feed:
	for _, j := range jobs {
		if spans {
			j.enqueued = time.Now()
		}
		select {
		case jobCh <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
}

// close tears the session's engine pool down. Sessions on a shared fleet
// leave the pool alone — it belongs to the Service and outlives them.
func (s *runSession) close() error {
	if s.gate != nil {
		return nil
	}
	return s.pool.close()
}

// Run executes the campaign; it is RunContext without external
// cancellation.
func (r *Runner) Run() (*ResultSet, error) { return r.RunContext(context.Background()) }

// RunContext executes the campaign on a sharded pool of persistent
// engines (one connection per PoolConfig.Backends worker, or one
// in-process pipe engine without backends): the full sweep, or with Config.Adaptive
// the risk-driven round loop (adaptive.go). Every finished episode streams
// through the results pipeline: incremental per-cell aggregation, the
// optional RecordSink, and — unless Config.DiscardRecords — retention for
// ResultSet.Records. Episodes already present in Config.ResumeFrom are
// folded into the results without being re-run.
//
// The first fatal episode error cancels dispatch: in-flight episodes
// finish, the remaining jobs are abandoned, and the error is returned.
// Cancelling ctx does the same with ctx's cause. Transient failures
// (session aborts, dead backends) are retried within PoolConfig.MaxRetries
// and a dead engine's slot is redialed once, so one lost backend costs a
// re-dispatch, not the campaign.
func (r *Runner) RunContext(ctx context.Context) (*ResultSet, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// A broken sink cancels dispatch: finishing thousands of episodes whose
	// streamed records are being dropped would be pure waste.
	pipe := newSinkPipeline(r.cells, r.sinkLanes(), !r.cfg.DiscardRecords,
		func(err error) { cancel(err) }, r.cfg.Progress)
	// Resume records stream through the pipeline's seed one at a time —
	// only their slot keys are retained here — before the shard goroutines
	// take ownership of the builders. An adaptive run also folds them into
	// its posteriors.
	seed := pipe.seed
	var loop *roundLoop
	if r.cfg.Adaptive != nil {
		loop = r.newRoundLoop()
		seed = func(rec metrics.EpisodeRecord) { pipe.seed(rec); loop.observe(rec) }
	}
	skip, err := r.seedResume(seed)
	if err != nil {
		pipe.abandon()
		return nil, err
	}
	pending, queues := r.pendingSlots(skip)
	mode, planned, maxBatch := "sweep", len(pending), len(pending)
	if loop != nil {
		loop.resolve(len(pending))
		mode, planned, maxBatch = "adaptive", loop.budget, min(loop.roundSize, loop.budget)
	}

	sess, err := r.newRunSession(maxBatch)
	if err != nil {
		pipe.abandon()
		return nil, err
	}
	r.beginRun(mode, planned, sess.pool)
	pipe.start(sess.parallelism)
	var astats *AdaptiveStats
	if loop != nil {
		astats = loop.run(ctx, cancel, sess, pipe.consume, queues)
	} else {
		telemetry.Infof("campaign: sweep started: %d episodes over %d cells, parallelism %d",
			len(pending), len(r.cells), sess.parallelism)
		sess.runJobs(ctx, cancel, pending, pipe.consume)
	}

	poolStats, engineAgg := sess.pool.snapshot()
	closeErr := sess.close()
	if cause := context.Cause(ctx); cause != nil {
		// The campaign is aborting: don't wait for the pipeline to drain —
		// a cancellation caused by a wedged sink would never finish.
		pipe.abandon()
		r.endRun(cause)
		return nil, cause
	}
	records, reports, sinkErr := pipe.finish()
	if closeErr != nil {
		r.endRun(closeErr)
		return nil, closeErr
	}
	if sinkErr != nil {
		r.endRun(sinkErr)
		return nil, sinkErr
	}
	r.endRun(nil)
	return &ResultSet{
		Records:  records,
		Reports:  reports,
		Engine:   engineAgg,
		Pool:     poolStats,
		Adaptive: astats,
	}, nil
}
