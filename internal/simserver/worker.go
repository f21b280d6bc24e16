package simserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// Worker is a standalone simulation backend: it accepts campaign
// connections on one TCP listener for its whole lifetime and serves each
// connection with a fresh session-multiplexed Server over the shared
// episode factory. This is the far side of campaign.PoolConfig.Backends —
// a campaign dials N workers instead of spawning in-process engines, and
// many campaigns (sequential or concurrent) may share one worker.
type Worker struct {
	factory   EpisodeFactory
	worldHash uint64

	mu       sync.Mutex
	listener *transport.Listener
	conns    map[transport.Conn]struct{}
	served   int
	closed   bool

	wg sync.WaitGroup
}

// NewWorker builds an idle worker around an episode factory (typically a
// world's NewEpisode) and the fingerprint of the world it builds episodes
// in, which every per-connection Server announces in its hello (see
// NewServer).
func NewWorker(factory EpisodeFactory, worldHash uint64) *Worker {
	return &Worker{factory: factory, worldHash: worldHash, conns: make(map[transport.Conn]struct{})}
}

// Listen binds the worker's listener and returns the bound address (useful
// with ":0"). It does not accept yet; call Serve.
func (w *Worker) Listen(addr string) (string, error) {
	l, err := transport.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("simserver: worker: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		l.Close()
		return "", fmt.Errorf("simserver: worker already closed")
	}
	if w.listener != nil {
		l.Close()
		return "", fmt.Errorf("simserver: worker already listening on %s", w.listener.Addr())
	}
	w.listener = l
	return l.Addr(), nil
}

// Addr returns the bound address ("" before Listen).
func (w *Worker) Addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.listener == nil {
		return ""
	}
	return w.listener.Addr()
}

// Accept-failure bounds: transient errors (fd exhaustion under many
// campaigns, a refused handshake) must not kill a long-lived worker, so
// Serve retries them after a short pause; a run of consecutive failures
// means the listener is genuinely broken and Serve gives up.
const (
	maxConsecutiveAcceptFailures = 10
	acceptRetryDelay             = 100 * time.Millisecond
)

// Serve accepts campaign connections until Close, giving each its own
// Server (session IDs are per-connection, so concurrent campaigns cannot
// collide). Transient accept errors are retried (bounded, paused); after
// Close, Serve returns nil once every in-flight connection's sessions have
// drained. A persistent accept failure is returned immediately — without
// waiting behind live connections, which their goroutines keep serving
// until Close tears them down.
func (w *Worker) Serve() error {
	w.mu.Lock()
	l := w.listener
	w.mu.Unlock()
	if l == nil {
		return fmt.Errorf("simserver: worker: Serve before Listen")
	}
	failures := 0
	for {
		conn, err := l.Accept()
		if err != nil {
			if w.isClosed() {
				w.wg.Wait()
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener is gone without Close: nothing to retry.
				return fmt.Errorf("simserver: worker: %w", err)
			}
			failures++
			if failures >= maxConsecutiveAcceptFailures {
				return fmt.Errorf("simserver: worker: %d consecutive accept failures: %w", failures, err)
			}
			telemetry.Warnf("simserver: worker accept failed (%d/%d), retrying: %v",
				failures, maxConsecutiveAcceptFailures, err)
			time.Sleep(acceptRetryDelay)
			continue
		}
		failures = 0
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			w.wg.Wait()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.served++
		w.mu.Unlock()
		telemetry.WorkerConns.Inc()
		telemetry.WorkerActiveConns.Add(1)
		telemetry.Infof("simserver: worker accepted campaign connection (%d served)", w.ConnsServed())
		w.wg.Add(1)
		go func(conn transport.Conn) {
			defer w.wg.Done()
			defer telemetry.WorkerActiveConns.Add(-1)
			_ = NewServer(w.factory, w.worldHash).Serve(conn)
			conn.Close()
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}(conn)
	}
}

// Close stops the worker: the listener closes and every active connection
// is torn down, so in-flight sessions on the other side fail immediately —
// the kill switch chaos tests lean on, and the prompt path for a
// signal-driven shutdown. Safe to call more than once, and before Listen.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	l := w.listener
	conns := make([]transport.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// ConnsServed reports how many campaign connections the worker has accepted
// over its lifetime.
func (w *Worker) ConnsServed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// ActiveConns reports how many campaign connections are being served now.
func (w *Worker) ActiveConns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// isClosed reports whether Close ran.
func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// WorkerStatus is a point-in-time view of a worker for /statusz.
type WorkerStatus struct {
	Addr        string `json:"addr"`
	ConnsServed int    `json:"conns_served"`
	ActiveConns int    `json:"active_conns"`
	Closed      bool   `json:"closed"`
	// WorldHash is the announced world fingerprint in hex.
	WorldHash string `json:"world_hash,omitempty"`
}

// Status snapshots the worker; safe to call from any goroutine.
func (w *Worker) Status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	addr := ""
	if w.listener != nil {
		addr = w.listener.Addr()
	}
	return WorkerStatus{
		Addr:        addr,
		ConnsServed: w.served,
		ActiveConns: len(w.conns),
		Closed:      w.closed,
		WorldHash:   fmt.Sprintf("%016x", w.worldHash),
	}
}
