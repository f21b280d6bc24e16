package simserver

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/transport"
)

// openMsg encodes the envelope that opens one episode on sid.
func openMsg(t testing.TB, w *sim.World, sid uint32, seed uint64, timeoutSec float64) []byte {
	t.Helper()
	from, to := mission(t, w, seed)
	return openEnvelope(sid, sim.EpisodeConfig{From: from, To: to, Seed: seed, TimeoutSec: timeoutSec})
}

// openEnvelope envelopes cfg's open on sid.
func openEnvelope(sid uint32, cfg sim.EpisodeConfig) []byte {
	return proto.EncodeEnvelope(sid, proto.EncodeOpenEpisode(&cfg))
}

// controlMsg envelopes a control answering frame on sid.
func controlMsg(sid, frame uint32) []byte {
	return proto.EncodeEnvelope(sid, proto.AppendControl(nil, &proto.Control{Frame: frame}))
}

// idleDriver answers every frame with a zero control.
func idleDriver() *simclient.AutopilotDriver {
	return &simclient.AutopilotDriver{
		Fn: func(*proto.SensorFrame) physics.Control { return physics.Control{} },
	}
}

// startServer serves the factory's episodes over a fresh pipe and returns
// the server, the raw client end, and the channel Serve's verdict arrives
// on. Like a Worker, it hangs up once Serve returns.
func startServer(t testing.TB, factory EpisodeFactory) (*Server, transport.Conn, chan error) {
	t.Helper()
	srv := NewServer(factory, 0)
	serverConn, clientConn := transport.Pipe()
	serveDone := make(chan error, 1)
	go func() {
		err := srv.Serve(serverConn)
		serverConn.Close()
		serveDone <- err
	}()
	return srv, clientConn, serveDone
}

// recvHello consumes the server's hello from a raw connection.
func recvHello(t testing.TB, conn transport.Conn) {
	t.Helper()
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sid, inner, err := proto.DecodeEnvelope(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.DecodeHello(inner); err != nil || sid != 0 {
		t.Fatalf("first message: session %d, %v; want the hello on session 0", sid, err)
	}
}

// helloAgain hands a Client a connection whose hello a raw exchange
// already consumed: the first Recv replays one.
type helloAgain struct {
	transport.Conn
	once sync.Once
}

func (c *helloAgain) Recv() ([]byte, error) {
	var hello []byte
	c.once.Do(func() { hello = proto.EncodeEnvelope(0, proto.EncodeHello(0)) })
	if hello != nil {
		return hello, nil
	}
	return c.Conn.Recv()
}

// TestTwoSessionsInterleaved drives two episodes over one raw connection in
// strict alternation: the test withholds session A's control until session
// B has produced a frame and vice versa, so passing requires the server to
// advance each session independently mid-episode — true multiplexing, not
// serialized episode turns. (Client-driven alternation keeps the schedule
// deterministic even on GOMAXPROCS=1, where free-running sessions
// serialize.)
func TestTwoSessionsInterleaved(t *testing.T) {
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, w.NewEpisode)
	recvHello(t, clientConn)

	const sidA, sidB = 1, 2
	for _, sid := range []uint32{sidA, sidB} {
		if err := clientConn.Send(openMsg(t, w, sid, uint64(sid), 2.0)); err != nil {
			t.Fatal(err)
		}
	}

	// recvFrame returns the next message's session and, when it is a
	// sensor frame, the decoded frame (nil for the episode result),
	// asserting protocol validity.
	decoders := map[uint32]*proto.FrameDecoder{sidA: {}, sidB: {}}
	recvFrame := func() (uint32, *proto.SensorFrame) {
		t.Helper()
		msg, err := clientConn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sid, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, ok := decoders[sid]
		if !ok {
			t.Fatalf("message for unopened session %d", sid)
		}
		kind, err := proto.Kind(inner)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case proto.KindEpisodeResult:
			return sid, nil
		case proto.KindSessionError:
			reason, _ := proto.DecodeSessionError(inner)
			t.Fatalf("session %d error: %s", sid, reason)
		}
		frame, err := dec.Decode(inner)
		if err != nil {
			t.Fatalf("session %d: %v", sid, err)
		}
		return sid, frame
	}

	// Phase 1: both sessions send their first frame unprompted, in either
	// arrival order.
	lastFrame := map[uint32]uint32{}
	for i := 0; i < 2; i++ {
		sid, frame := recvFrame()
		if frame == nil {
			t.Fatalf("first message of session %d is not a sensor frame", sid)
		}
		if _, dup := lastFrame[sid]; dup {
			t.Fatalf("two first-frames from session %d: sessions are serialized", sid)
		}
		lastFrame[sid] = frame.Frame
	}

	// Phase 2: strict alternation. After a control for session X, the only
	// possible next message is from X (the other session is stalled waiting
	// for its own control) — each session must advance while its peer sits
	// mid-episode on the same connection.
	ended := map[uint32]bool{}
	for turn := 0; len(ended) < 2; turn++ {
		sid := uint32(sidA)
		if turn%2 == 1 {
			sid = sidB
		}
		if ended[sid] {
			continue
		}
		if err := clientConn.Send(controlMsg(sid, lastFrame[sid])); err != nil {
			t.Fatal(err)
		}
		gotSid, frame := recvFrame()
		if gotSid != sid {
			t.Fatalf("turn %d: control for session %d answered by session %d", turn, sid, gotSid)
		}
		if frame == nil {
			t.Fatalf("turn %d: result before the done-frame", turn)
		}
		if frame.Frame <= lastFrame[sid] {
			t.Fatalf("session %d frame %d did not advance past %d", sid, frame.Frame, lastFrame[sid])
		}
		lastFrame[sid] = frame.Frame
		if frame.Done {
			// The episode result follows back-to-back and ends the session.
			if gotSid, frame := recvFrame(); gotSid != sid || frame != nil {
				t.Fatalf("after done frame: session %d sent another frame, want session %d's result", gotSid, sid)
			}
			ended[sid] = true
		}
	}

	if lastFrame[sidA] == 0 || lastFrame[sidB] == 0 {
		t.Errorf("sessions did not both progress: %v", lastFrame)
	}
	clientConn.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
	if got := srv.TotalSessions(); got != 2 {
		t.Errorf("TotalSessions = %d, want 2", got)
	}
}

// TestFourEpisodesMultiplexedOneConn holds every episode factory at a
// barrier until four sessions have opened, proving >= 4 concurrent episodes
// are multiplexed over a single transport.Conn.
func TestFourEpisodesMultiplexedOneConn(t *testing.T) {
	const n = 4
	w := testWorld(t)

	var opened int32
	barrier := make(chan struct{})
	srv, clientConn, serveDone := startServer(t, func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		if atomic.AddInt32(&opened, 1) == n {
			close(barrier)
		}
		<-barrier
		return w.NewEpisode(cfg)
	})
	client := simclient.NewClient(clientConn)

	for i, err := range runEpisodes(t, client, w, n) {
		if err != nil {
			t.Errorf("episode %d: %v", i, err)
		}
	}
	if got := srv.MaxConcurrent(); got < n {
		t.Errorf("MaxConcurrent = %d, want >= %d", got, n)
	}
	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
}

// runEpisodes drives n concurrent idle episodes (seeds 1..n) through
// client and returns the per-episode errors.
func runEpisodes(t *testing.T, client *simclient.Client, w *sim.World, n int) []error {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from, to := mission(t, w, uint64(i+1))
			_, errs[i] = client.RunEpisode(sim.EpisodeConfig{
				From: from, To: to,
				Seed: uint64(i + 1), TimeoutSec: 1.0,
			}, idleDriver())
		}(i)
	}
	wg.Wait()
	return errs
}

// TestSessionErrorPropagates turns a factory failure into a client-visible
// episode error without tearing down the engine.
func TestSessionErrorPropagates(t *testing.T) {
	w := testWorld(t)
	_, clientConn, serveDone := startServer(t, func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		if cfg.Seed == 666 {
			return nil, errors.New("factory boom")
		}
		return w.NewEpisode(cfg)
	})
	client := simclient.NewClient(clientConn)

	from, to := mission(t, w, 5)
	_, err := client.RunEpisode(sim.EpisodeConfig{
		From: from, To: to, Seed: 666,
	}, idleDriver())
	if err == nil || !strings.Contains(err.Error(), "factory boom") {
		t.Errorf("error = %v, want factory boom", err)
	}

	// The engine survives: a later session on the same conn succeeds.
	res, err := client.RunEpisode(sim.EpisodeConfig{
		From: from, To: to, Seed: 5, TimeoutSec: 1.0,
	}, idleDriver())
	if err != nil {
		t.Fatalf("engine dead after session error: %v", err)
	}
	if res.Frames == 0 {
		t.Errorf("follow-up episode made no progress: %+v", res)
	}

	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

// TestServerDrainsOnMidEpisodeHangup closes the client connection with an
// episode in flight; Serve must unblock the session and return cleanly.
func TestServerDrainsOnMidEpisodeHangup(t *testing.T) {
	w := testWorld(t)
	_, clientConn, serveDone := startServer(t, w.NewEpisode)
	recvHello(t, clientConn)

	if err := clientConn.Send(openMsg(t, w, 9, 9, 30.0)); err != nil {
		t.Fatal(err)
	}
	// One frame proves the session is live, then hang up.
	if _, err := clientConn.Recv(); err != nil {
		t.Fatal(err)
	}
	clientConn.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after hangup", err)
	}
}

// TestServeHealthAccessors pins the health-plumbing contract the campaign
// engine pool relies on: Err is nil and Done false while Serve runs, Done
// flips once Serve returns, and a clean peer-initiated shutdown leaves Err
// nil. FailedSessions counts factory aborts.
func TestServeHealthAccessors(t *testing.T) {
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		if cfg.Seed == 666 {
			return nil, errors.New("factory boom")
		}
		return w.NewEpisode(cfg)
	})
	recvHello(t, clientConn)

	if srv.Done() {
		t.Error("Done true before Serve returned")
	}
	if err := srv.Err(); err != nil {
		t.Errorf("Err = %v while serving", err)
	}
	if got := srv.FailedSessions(); got != 0 {
		t.Errorf("FailedSessions = %d before any session", got)
	}

	// One failing session increments FailedSessions without ending Serve.
	if err := clientConn.Send(openEnvelope(1, sim.EpisodeConfig{Seed: 666})); err != nil {
		t.Fatal(err)
	}
	if _, err := clientConn.Recv(); err != nil { // the SessionError reply
		t.Fatal(err)
	}
	if got := srv.FailedSessions(); got != 1 {
		t.Errorf("FailedSessions = %d after factory abort, want 1", got)
	}
	if srv.Done() {
		t.Error("Done true after a mere session failure")
	}

	clientConn.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
	if !srv.Done() {
		t.Error("Done false after Serve returned")
	}
	if err := srv.Err(); err != nil {
		t.Errorf("Err = %v after clean shutdown, want nil", err)
	}
}

// TestDemuxControlOverflowDropsSession is the server-side mirror of the
// client's head-of-line regression test: a session whose control buffer is
// full (its goroutine stopped consuming) is dropped, and the demux loop
// keeps serving every other session on the connection.
func TestDemuxControlOverflowDropsSession(t *testing.T) {
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, w.NewEpisode)
	recvHello(t, clientConn)

	// Handcraft a wedged session: registered, buffer already full, nobody
	// consuming.
	wedged := make(chan *proto.Control, 1)
	wedged <- &proto.Control{}
	srv.mu.Lock()
	srv.sessions[99] = wedged
	srv.mu.Unlock()

	// Overflow it; the demux loop must drop the session, not park on it.
	if err := clientConn.Send(controlMsg(99, 0)); err != nil {
		t.Fatal(err)
	}

	// The peer is told its session died — no silent drop that would leave
	// a client episode loop waiting forever.
	reply, err := clientConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sid, inner, err := proto.DecodeEnvelope(reply)
	if err != nil || sid != 99 {
		t.Fatalf("reply envelope sid=%d err=%v, want sid=99", sid, err)
	}
	if kind, err := proto.Kind(inner); err != nil || kind != proto.KindSessionError {
		t.Fatalf("reply kind=%v err=%v, want SessionError", kind, err)
	}

	// The connection still serves real episodes end-to-end.
	client := simclient.NewClient(&helloAgain{Conn: clientConn})
	from, to := mission(t, w, 5)
	res, err := client.RunEpisode(sim.EpisodeConfig{
		From: from, To: to, Seed: 5, TimeoutSec: 1.0,
	}, idleDriver())
	if err != nil {
		t.Fatalf("demux stalled by wedged session: %v", err)
	}
	if res.Frames == 0 {
		t.Errorf("episode made no progress: %+v", res)
	}

	// The wedged session was closed out and counted.
	srv.mu.Lock()
	_, still := srv.sessions[99]
	srv.mu.Unlock()
	if still {
		t.Error("overflowed session still registered")
	}
	<-wedged // drain the buffered control
	if _, open := <-wedged; open {
		t.Error("wedged session channel not closed")
	}
	if got := srv.FailedSessions(); got != 1 {
		t.Errorf("FailedSessions = %d, want 1", got)
	}

	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

// TestFullResultOverWire pins the session's terminal message: the
// EpisodeResult the client receives is, bit for bit, the sim.Result of the
// same episode stepped locally with the same controls.
func TestFullResultOverWire(t *testing.T) {
	w := testWorld(t)
	_, clientConn, serveDone := startServer(t, w.NewEpisode)
	client := simclient.NewClient(clientConn)

	from, to := mission(t, w, 9)
	cfg := sim.EpisodeConfig{
		From: from, To: to, Seed: 9, TimeoutSec: 1.0,
	}
	ctl := physics.Control{Steer: 0.3, Throttle: 1}
	wire, err := client.RunEpisode(cfg, &simclient.AutopilotDriver{
		Fn: func(*proto.SensorFrame) physics.Control { return ctl },
	})
	if err != nil {
		t.Fatal(err)
	}

	e, err := w.NewEpisode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !e.Observe().Done {
		e.Step(ctl)
	}
	if local := e.Result(); !reflect.DeepEqual(wire, local) {
		t.Errorf("wire result diverged from the local episode:\n wire  %+v\n local %+v",
			wire, local)
	}

	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
}
