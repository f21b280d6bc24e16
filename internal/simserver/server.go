package simserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// EpisodeFactory builds the episode for one opened scenario, typically a
// sim.World's NewEpisode. The server owns the world; clients only ship
// scenario parameters over the wire.
type EpisodeFactory func(sim.EpisodeConfig) (*sim.Episode, error)

// Server is the persistent, session-multiplexed simulation engine: one
// Server serves many concurrent episodes over a single transport.Conn. Each
// entry of an OpenEpisodeBatch spawns a session goroutine running the
// frame/control loop, with all sessions' traffic interleaved on the shared
// connection.
//
// This is the campaign-throughput shape the paper's sweeps need: episode
// dispatch is O(1) in connections (one conn and, over TCP, one listener per
// campaign) instead of a listener + dial + goroutine per episode.
type Server struct {
	factory   EpisodeFactory
	worldHash uint64

	mu          sync.Mutex
	sessions    map[uint32]chan *proto.Control
	active      int
	maxActive   int
	total       int
	completed   int
	failed      int
	serveErr    error
	served      bool
	deltaFrames int

	wg sync.WaitGroup
}

// NewServer builds an idle engine around an episode factory. worldHash is
// the fingerprint (sim.WorldConfig.Hash) of the world the factory builds
// episodes in; the server announces it in its hello so a client configured
// for a different world refuses the pairing before any episode runs.
func NewServer(factory EpisodeFactory, worldHash uint64) *Server {
	return &Server{
		factory:   factory,
		worldHash: worldHash,
		sessions:  make(map[uint32]chan *proto.Control),
	}
}

// Serve sends the hello, then multiplexes episodes over conn until the
// peer closes it. Every received envelope opens sessions
// (KindOpenEpisodeBatch), routes a control to its session goroutine, or
// aborts a session the client abandoned. Serve returns nil on a clean
// shutdown (peer closed the connection) after all in-flight sessions
// drain.
func (s *Server) Serve(conn transport.Conn) error {
	// A send failure here means the connection is already dead; the demux
	// loop's first Recv reports it.
	_ = conn.Send(proto.EncodeEnvelope(0, proto.EncodeHello(s.worldHash)))
	err := s.demux(conn)
	// Unblock any session still waiting for a control (the peer is gone),
	// then drain the episode goroutines.
	s.mu.Lock()
	for sid, ch := range s.sessions {
		close(ch)
		delete(s.sessions, sid)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.serveErr = err
	s.served = true
	s.mu.Unlock()
	return err
}

// demux is Serve's receive loop.
func (s *Server) demux(conn transport.Conn) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			if isClosed(err) {
				return nil
			}
			return fmt.Errorf("simserver: serve recv: %w", err)
		}
		sid, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			return fmt.Errorf("simserver: serve: %w", err)
		}
		kind, err := proto.Kind(inner)
		if err != nil {
			return fmt.Errorf("simserver: session %d: %w", sid, err)
		}
		switch kind {
		case proto.KindOpenEpisodeBatch:
			// One group-committed message fans out into independent
			// sessions.
			if sid != 0 {
				return fmt.Errorf("simserver: open-episode batch on session %d, want session 0", sid)
			}
			entries, err := proto.DecodeOpenEpisodeBatch(inner)
			if err != nil {
				return fmt.Errorf("simserver: batch: %w", err)
			}
			for _, e := range entries {
				if err := s.open(conn, e.SID, e.Config); err != nil {
					return err
				}
			}

		case proto.KindControl:
			ctl, err := proto.DecodeControl(inner)
			if err != nil {
				return fmt.Errorf("simserver: session %d: %w", sid, err)
			}
			s.mu.Lock()
			ch, ok := s.sessions[sid]
			s.mu.Unlock()
			if !ok {
				// Session already ended (e.g. the control raced an abort).
				continue
			}
			select {
			case ch <- ctl:
			default:
				// The episode protocol is strictly request/response, so a
				// control beyond the buffered depth means the peer is
				// broken for this session. Drop the session rather than
				// letting one session's backpressure stall the demux loop —
				// the mirror of the client-side head-of-line guard.
				if s.dropSession(sid) {
					telemetry.Warnf("simserver: session %d dropped: control overflow", sid)
					// Tell the peer, so its episode loop fails instead of
					// waiting forever for a frame that will never come —
					// from a goroutine, so that even a backpressured
					// connection cannot stall the demux loop. Serve's
					// final wg.Wait covers this sender.
					s.wg.Add(1)
					go func() {
						defer s.wg.Done()
						msg := proto.EncodeSessionError("control overflow (session not consuming)")
						_ = conn.Send(proto.EncodeEnvelope(sid, msg))
					}()
				}
			}

		case proto.KindSessionError:
			// The client abandoned this session (its driver failed, or its
			// own demux dropped it): stop simulating for nobody. An unknown
			// session is ignored like a control that raced the end.
			reason, err := proto.DecodeSessionError(inner)
			if err != nil {
				return fmt.Errorf("simserver: session %d: %w", sid, err)
			}
			if s.dropSession(sid) {
				telemetry.Infof("simserver: session %d aborted by client: %s", sid, reason)
			}

		default:
			return fmt.Errorf("simserver: session %d: unexpected kind %d", sid, kind)
		}
	}
}

// dropSession ends a live session from the demux loop: its goroutine sees
// the closed control channel and exits, and the session counts as failed.
// It reports false for a session that has already ended.
func (s *Server) dropSession(sid uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, live := s.sessions[sid]
	if !live {
		return false
	}
	close(ch)
	delete(s.sessions, sid)
	s.failed++
	telemetry.ServerSessionsFailed.Inc()
	return true
}

// open registers a session and spawns its episode goroutine. Episode
// construction happens inside the goroutine so heavy scenario setup never
// blocks the demux loop, and many episodes build concurrently.
func (s *Server) open(conn transport.Conn, sid uint32, cfg sim.EpisodeConfig) error {
	// A control per in-flight frame plus the strictly request/response
	// loop means one slot never blocks the demux loop.
	if sid == 0 {
		return fmt.Errorf("simserver: episode opened on session 0, the connection's control channel")
	}
	ch := make(chan *proto.Control, 1)
	s.mu.Lock()
	if _, dup := s.sessions[sid]; dup {
		s.mu.Unlock()
		return fmt.Errorf("simserver: session %d already open", sid)
	}
	s.sessions[sid] = ch
	s.active++
	s.total++
	if s.active > s.maxActive {
		s.maxActive = s.active
	}
	s.mu.Unlock()
	telemetry.ServerSessionsOpened.Inc()
	telemetry.ServerInFlight.Add(1)

	s.wg.Add(1)
	go s.runSession(conn, sid, cfg, ch)
	return nil
}

// runSession builds and drives one episode: send enveloped sensor frames,
// wait for the routed control, step; after the done-frame, the full result
// ends the session. A factory failure is reported to the client as a
// SessionError, not a server error: one bad scenario must not tear down the
// whole campaign engine.
func (s *Server) runSession(conn transport.Conn, sid uint32, cfg sim.EpisodeConfig, controls chan *proto.Control) {
	defer s.wg.Done()
	defer s.closeSession(sid, controls)

	e, err := s.factory(cfg)
	if err != nil {
		telemetry.ServerSessionsFailed.Inc()
		telemetry.Infof("simserver: session %d rejected by episode factory: %v", sid, err)
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		_ = conn.Send(proto.EncodeEnvelope(sid, proto.EncodeSessionError(err.Error())))
		return
	}

	// One stream codec per session: frames reuse the encoder's scratch and
	// send buffer (zero steady-state allocations), and delta-compress
	// against the session's previous frame.
	var enc proto.FrameEncoder
	defer func() {
		s.mu.Lock()
		s.deltaFrames += enc.Deltas()
		s.mu.Unlock()
	}()
	for {
		obs := e.Observe()
		obsFrameInto(enc.Next(), obs)
		if err := conn.Send(enc.Encode(sid)); err != nil {
			return
		}
		if obs.Done {
			break
		}
		ctl, ok := <-controls
		if !ok {
			return
		}
		e.Step(physics.Control{Steer: ctl.Steer, Throttle: ctl.Throttle, Brake: ctl.Brake})
	}

	res := e.Result()
	telemetry.ServerSessionsCompleted.Inc()
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
	_ = conn.Send(proto.EncodeEnvelope(sid, proto.EncodeEpisodeResult(&res)))
}

// closeSession removes a session's routing entry — unless the demux loop
// already dropped it and the client has since reopened the same ID, in
// which case the entry belongs to the newer session.
func (s *Server) closeSession(sid uint32, controls chan *proto.Control) {
	telemetry.ServerInFlight.Add(-1)
	s.mu.Lock()
	if s.sessions[sid] == controls {
		delete(s.sessions, sid)
	}
	s.active--
	s.mu.Unlock()
}

// MaxConcurrent reports the high-water mark of simultaneously active
// sessions — the multiplexing factor actually achieved on the connection.
func (s *Server) MaxConcurrent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxActive
}

// TotalSessions reports how many episodes the engine has served.
func (s *Server) TotalSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// CompletedSessions reports how many sessions ran their episode to the end
// and sent its result — sessions aborted by factory failures, overflow
// drops, or a dying connection are excluded, so campaign stats can count
// finished episodes, not attempts.
func (s *Server) CompletedSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// FailedSessions reports how many sessions aborted (episode factory
// failures, demux control overflow, client-side aborts) — per-engine
// health for pool supervision.
func (s *Server) FailedSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// DeltaFramesSent reports how many sensor frames went out delta-encoded
// across finished sessions.
func (s *Server) DeltaFramesSent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltaFrames
}

// Err reports why Serve exited: nil while it is still running or after a
// clean peer-initiated shutdown, non-nil when the engine's backend died.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Done reports whether Serve has returned.
func (s *Server) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// isClosed reports whether err means the peer hung up — the engine's normal
// end-of-campaign signal on either transport.
func isClosed(err error) bool {
	return errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed)
}
