package simclient

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// ErrClientClosed is returned by RunEpisode when the shared connection is
// gone before the episode completed.
var ErrClientClosed = errors.New("simclient: client closed")

// ErrNoHello is returned by ServerHello when the server's hello does not
// arrive in time: the peer is not an AVFI simulator of this protocol
// version, and no episode may be sent to it.
var ErrNoHello = errors.New("simclient: server sent no hello")

// SessionError is a server-side, per-session failure (e.g. the episode
// factory rejected the scenario) relayed to that session's RunEpisode call.
// The engine itself survives it: only this episode failed, so campaign
// schedulers treat it as transient and may re-dispatch the episode.
type SessionError struct {
	// SID is the failed session.
	SID uint32
	// Reason is the server's diagnostic.
	Reason string
}

// Error implements error.
func (e *SessionError) Error() string {
	return fmt.Sprintf("simclient: session %d: server: %s", e.SID, e.Reason)
}

// inbound is one routed message: the transport buffer it arrived in (so
// the consuming episode loop can Recycle it once fully decoded) and the
// enveloped payload within it.
type inbound struct {
	msg   []byte
	inner []byte
}

// session is one episode's demux entry: data carries routed inner messages,
// fail carries at most one terminal routing failure (demux overflow).
type session struct {
	data chan inbound
	fail chan error
}

// Client is the session-multiplexed agent endpoint: a worker pool of
// drivers shares one transport.Conn, each worker running episodes through
// RunEpisode with its own session ID. A single receive loop demultiplexes
// enveloped server messages to the per-session episode loops, so a whole
// campaign needs exactly one connection (and, over TCP, one dial).
type Client struct {
	conn transport.Conn

	mu          sync.Mutex
	next        uint32
	sessions    map[uint32]*session
	err         error
	completed   int
	failed      int
	maxOpen     int
	deltaFrames int

	openCh chan *openReq
	done   chan struct{}
	// helloCh is closed when the server's hello arrives; worldHash is
	// written before that and never after.
	helloCh   chan struct{}
	worldHash uint64
}

// openReq is one episode open queued for the coalescing send loop; errc
// (buffered) carries the send's outcome back to the episode goroutine.
type openReq struct {
	sid  uint32
	cfg  sim.EpisodeConfig
	errc chan error
}

// NewClient wraps a connection and starts the demultiplexing receive loop.
// Callers own the connection and end the engine by closing it (or the
// Client via Close).
func NewClient(conn transport.Conn) *Client {
	c := &Client{
		conn:     conn,
		sessions: make(map[uint32]*session),
		openCh:   make(chan *openReq, 256),
		done:     make(chan struct{}),
		helloCh:  make(chan struct{}),
	}
	go c.recvLoop()
	go c.sendLoop()
	return c
}

// recvLoop takes the server's hello, then routes enveloped messages to
// their session until the connection dies, and finally wakes every waiting
// session.
func (c *Client) recvLoop() {
	err := c.recvHello()
	if err == nil {
		close(c.helloCh)
		err = c.demux()
	}
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
	close(c.done)
}

// recvHello reads the connection's first message, which must be the
// server's hello on session 0. A peer speaking another protocol version
// fails here, in the envelope's version check.
func (c *Client) recvHello() error {
	msg, err := c.conn.Recv()
	if err != nil {
		return err
	}
	sid, inner, err := proto.DecodeEnvelope(msg)
	if err != nil {
		return err
	}
	if sid != 0 {
		return fmt.Errorf("simclient: first message is for session %d, want the server hello", sid)
	}
	c.worldHash, err = proto.DecodeHello(inner)
	transport.Recycle(msg)
	return err
}

// demux is the receive loop after the hello. Routing never blocks: a
// session whose inbound buffer is full is failed and dropped, because one
// wedged session stalling the demux loop would stall every other session
// on the connection (head-of-line blocking).
func (c *Client) demux() error {
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			return err
		}
		sid, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			return err
		}
		if sid == 0 {
			return fmt.Errorf("simclient: unexpected message on session 0 after the hello")
		}
		c.mu.Lock()
		s, ok := c.sessions[sid]
		c.mu.Unlock()
		if !ok {
			// Session abandoned (its RunEpisode already returned an error).
			transport.Recycle(msg)
			continue
		}
		select {
		case s.data <- inbound{msg: msg, inner: inner}:
		default:
			// The episode protocol is strictly request/response, so an
			// overflowing buffer means this session is broken or its driver
			// wedged. Fail it and keep the demux loop moving.
			select {
			case s.fail <- fmt.Errorf("inbound buffer overflow (session not consuming)"):
			default:
			}
			telemetry.Warnf("simclient: session %d dropped: inbound buffer overflow", sid)
			c.unregister(sid)
			transport.Recycle(msg)
		}
	}
}

// Close closes the shared connection; in-flight RunEpisode calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Err reports why the receive loop stopped (nil while it is running).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// CompletedSessions reports how many episodes ran to their EpisodeResult on
// this client — the client-side mirror of simserver.Server's counter, which
// is what engine statistics use when the server is on the far side of a
// network (remote backends).
func (c *Client) CompletedSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// FailedSessions reports how many sessions ended in a server-side abort
// (SessionError) or a demux overflow drop.
func (c *Client) FailedSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// MaxConcurrent reports the high-water mark of sessions simultaneously open
// on the connection.
func (c *Client) MaxConcurrent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxOpen
}

// noteCompleted counts one cleanly finished episode.
func (c *Client) noteCompleted() {
	telemetry.ClientSessionsCompleted.Inc()
	c.mu.Lock()
	c.completed++
	c.mu.Unlock()
}

// noteFailed counts one session aborted by the server or the demux guard.
func (c *Client) noteFailed() {
	telemetry.ClientSessionsFailed.Inc()
	c.mu.Lock()
	c.failed++
	c.mu.Unlock()
}

// ServerHello blocks until the server's hello has arrived and returns the
// world hash it announced. It fails with the connection's error when the
// connection dies first (a peer of another protocol version lands here,
// with the codec's version error), and with ErrNoHello when nothing
// arrives within timeout. Servers send the hello as their very first
// message, so this resolves in one network round trip.
func (c *Client) ServerHello(timeout time.Duration) (worldHash uint64, err error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.helloCh:
		return c.worldHash, nil
	case <-c.done:
		return 0, c.closedErr()
	case <-t.C:
		return 0, ErrNoHello
	}
}

// DeltaFrames reports how many sensor frames arrived delta-encoded across
// finished episodes.
func (c *Client) DeltaFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deltaFrames
}

// noteDeltas accumulates one episode's delta-frame count.
func (c *Client) noteDeltas(n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.deltaFrames += n
	c.mu.Unlock()
}

// closedErr is the terminal error for work racing the client's shutdown.
func (c *Client) closedErr() error {
	if err := c.Err(); err != nil {
		return err
	}
	return ErrClientClosed
}

// sendOpen queues one episode open for the coalescing send loop and waits
// for the outcome of the send that carried it.
func (c *Client) sendOpen(sid uint32, cfg sim.EpisodeConfig) error {
	req := &openReq{sid: sid, cfg: cfg, errc: make(chan error, 1)}
	select {
	case c.openCh <- req:
	case <-c.done:
		return c.closedErr()
	}
	select {
	case err := <-req.errc:
		return err
	case <-c.done:
		// The send loop may have picked the request up just before the
		// shutdown; prefer its verdict when one is already waiting.
		select {
		case err := <-req.errc:
			return err
		default:
			return c.closedErr()
		}
	}
}

// openBatchLimit bounds how many queued opens one OpenEpisodeBatch carries
// — deep enough to soak up a worker pool's burst of concurrent opens,
// small against proto.MaxBatchOpens.
const openBatchLimit = 8

// sendLoop is the open coalescer: it waits for one open, then drains —
// without blocking, so an open is never delayed waiting for company —
// whatever other opens the worker pool has already queued, up to
// openBatchLimit, and sends them as one OpenEpisodeBatch on session 0.
func (c *Client) sendLoop() {
	for {
		select {
		case <-c.done:
			// Fail opens that raced the shutdown.
			for {
				select {
				case req := <-c.openCh:
					req.errc <- c.closedErr()
				default:
					return
				}
			}
		case req := <-c.openCh:
			batch := append(make([]*openReq, 0, openBatchLimit), req)
		drain:
			for len(batch) < openBatchLimit {
				select {
				case more := <-c.openCh:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			telemetry.ClientOpenBatch.Observe(float64(len(batch)))
			entries := make([]proto.OpenBatchEntry, len(batch))
			for i, r := range batch {
				entries[i] = proto.OpenBatchEntry{SID: r.sid, Config: r.cfg}
			}
			err := c.conn.Send(proto.EncodeEnvelope(0, proto.EncodeOpenEpisodeBatch(entries)))
			for _, r := range batch {
				r.errc <- err
			}
		}
	}
}

// register allocates a session ID and its demux entry.
func (c *Client) register() (uint32, *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	sid := c.next
	s := &session{
		// Deep enough for the final done-frame and the EpisodeResult, which
		// the server sends back-to-back without an intervening control.
		data: make(chan inbound, 2),
		fail: make(chan error, 1),
	}
	c.sessions[sid] = s
	if len(c.sessions) > c.maxOpen {
		c.maxOpen = len(c.sessions)
	}
	telemetry.ClientSessionsOpened.Inc()
	telemetry.ClientInFlight.Add(1)
	return sid, s
}

// unregister drops a session's routing entry. Idempotent: the demux
// guard and RunEpisode's deferred cleanup may both call it, and the
// in-flight gauge must move once per session.
func (c *Client) unregister(sid uint32) {
	c.mu.Lock()
	if _, ok := c.sessions[sid]; ok {
		delete(c.sessions, sid)
		telemetry.ClientInFlight.Add(-1)
	}
	c.mu.Unlock()
}

// RunEpisode opens a session for the scenario, drives every sensor frame
// through the Driver, and returns the server's full episode result. A
// scenario whose integer fields do not fit the wire (proto.ErrWireRange)
// fails before it is queued, so it never joins a batch. When the episode
// fails on this side of the wire the server is told to drop the session,
// so it stops simulating for nobody. Safe for concurrent use from many
// workers.
func (c *Client) RunEpisode(cfg sim.EpisodeConfig, d Driver) (sim.Result, error) {
	if err := proto.CheckEpisodeConfig(cfg); err != nil {
		return sim.Result{}, fmt.Errorf("simclient: %w", err)
	}
	sid, s := c.register()
	defer c.unregister(sid)
	res, err := c.runSession(sid, s, cfg, d)
	if err == nil {
		c.noteCompleted()
		return *res, nil
	}
	var se *SessionError
	if errors.As(err, &se) {
		return sim.Result{}, err // the server closed the session itself
	}
	err = fmt.Errorf("simclient: session %d: %w", sid, err)
	select {
	case <-c.done:
		// The connection is gone; the server drains every session on it.
	default:
		// The server still holds the session. One it never saw, or already
		// finished, it ignores.
		_ = c.conn.Send(proto.EncodeEnvelope(sid, proto.EncodeSessionError(err.Error())))
	}
	return sim.Result{}, err
}

// runSession is one episode's message loop, from the open to the result.
func (c *Client) runSession(sid uint32, s *session, cfg sim.EpisodeConfig, d Driver) (*sim.Result, error) {
	var st episodeStream
	defer func() { c.noteDeltas(st.dec.Deltas()) }()

	// Phase spans (open: open sent -> first inbound; frames: first inbound
	// -> done-frame; result: done-frame -> result) cost a time.Now per
	// boundary, so they are skipped entirely unless telemetry is collecting.
	spans := telemetry.Enabled()
	var tOpen, tFirst, tDone time.Time
	if spans {
		tOpen = time.Now()
	}
	if err := c.sendOpen(sid, cfg); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	d.Reset()
	for {
		var in inbound
		select {
		case in = <-s.data:
		case err := <-s.fail:
			c.noteFailed()
			return nil, err
		case <-c.done:
			// Drain a message that raced the shutdown.
			select {
			case in = <-s.data:
			default:
				return nil, c.closedErr()
			}
		}
		if spans && tFirst.IsZero() {
			tFirst = time.Now()
			telemetry.PhaseOpen.Observe(tFirst.Sub(tOpen).Seconds())
		}
		kind, err := proto.Kind(in.inner)
		if err != nil {
			return nil, err
		}
		switch kind {
		case proto.KindSessionError:
			reason, err := proto.DecodeSessionError(in.inner)
			if err != nil {
				return nil, err
			}
			c.noteFailed()
			return nil, &SessionError{SID: sid, Reason: reason}
		case proto.KindEpisodeResult:
			res, err := proto.DecodeEpisodeResult(in.inner)
			if err != nil {
				return nil, err
			}
			if spans && !tDone.IsZero() {
				telemetry.PhaseResult.Observe(time.Since(tDone).Seconds())
			}
			transport.Recycle(in.msg)
			return res, nil
		}
		reply, done, err := st.step(in.inner, sid, d)
		if err != nil {
			return nil, err
		}
		// Every decoder copies what it keeps, so the transport buffer can
		// go back to the pool before the reply is even sent.
		transport.Recycle(in.msg)
		if done {
			if spans {
				tDone = time.Now()
				telemetry.PhaseFrames.Observe(tDone.Sub(tFirst).Seconds())
			}
			continue
		}
		if err := c.conn.Send(reply); err != nil {
			return nil, fmt.Errorf("send control: %w", err)
		}
	}
}
