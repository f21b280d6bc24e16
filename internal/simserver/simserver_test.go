package simserver

import (
	"reflect"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/autopilot"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/transport"
	"github.com/avfi/avfi/internal/world"
)

func testWorld(t testing.TB) *sim.World {
	t.Helper()
	cfg := sim.DefaultWorldConfig()
	cfg.Town.GridW, cfg.Town.GridH = 3, 3
	cfg.Camera.Width, cfg.Camera.Height = 16, 12
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mission(t testing.TB, w *sim.World, seed uint64) (world.NodeID, world.NodeID) {
	t.Helper()
	from, to, err := w.Town().RandomMission(rng.New(seed), 120)
	if err != nil {
		t.Fatal(err)
	}
	return from, to
}

// lockstepConn materializes the happens-before edges the request/response
// protocol already guarantees. TCP tests drive the client with a
// ground-truth oracle reading the server's episode, which is safe only
// because exactly one side acts at a time — but the race detector cannot
// see alternation through a socket (the pipe transport's channels provide
// these edges for free). Wrapping both ends over one mutex — acquired
// before a send and after a receive, never held across I/O — turns each
// message into a visible synchronization point.
type lockstepConn struct {
	transport.Conn
	mu *sync.Mutex
}

func (c lockstepConn) Send(msg []byte) error {
	c.mu.Lock()
	//lint:ignore SA2001 the empty critical section is the point: an edge, not exclusion
	c.mu.Unlock()
	return c.Conn.Send(msg)
}

func (c lockstepConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	c.mu.Lock()
	//lint:ignore SA2001 see Send
	c.mu.Unlock()
	return msg, err
}

// runAutopilotEpisode serves one mission over the given connection pair
// with the oracle autopilot driving the client, and returns the result
// the client received. The factory hands the test its episode so the
// oracle can read ego state (a legitimate server-side oracle for tests:
// the protocol carries sensor frames, the expert uses episode state).
func runAutopilotEpisode(t *testing.T, w *sim.World, seed uint64, serverConn, clientConn transport.Conn) sim.Result {
	t.Helper()
	from, to := mission(t, w, seed)
	var e *sim.Episode
	var pilot *autopilot.Pilot
	srv := NewServer(func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		var err error
		e, err = w.NewEpisode(cfg)
		if err == nil {
			pilot = autopilot.New(e.Route(), e.EgoParams(), autopilot.DefaultConfig())
		}
		return e, err
	}, w.Config().Hash())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(serverConn) }()

	client := simclient.NewClient(clientConn)
	res, err := client.RunEpisode(sim.EpisodeConfig{From: from, To: to, Seed: seed},
		&simclient.AutopilotDriver{
			Fn: func(*proto.SensorFrame) physics.Control { return pilot.Control(e.EgoState(), nil) },
		})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean close", err)
	}
	return res
}

// TestTransportEquivalence: the same mission must produce identical
// results over pipe and TCP, in lock-step — the transports are
// interchangeable, so timing faults measured on the pipe transfer to the
// network deployment.
func TestTransportEquivalence(t *testing.T) {
	w := testWorld(t)

	serverConn, clientConn := transport.Pipe()
	resPipe := runAutopilotEpisode(t, w, 3, serverConn, clientConn)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- conn
	}()
	tcpClient, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	tcpServer := <-accepted
	if tcpServer == nil {
		t.FailNow()
	}
	defer tcpServer.Close()
	var step sync.Mutex // lockstep edges for the e.EgoState oracle
	resTCP := runAutopilotEpisode(t, w, 3, lockstepConn{tcpServer, &step}, lockstepConn{tcpClient, &step})

	if !resPipe.Success || resPipe.Frames == 0 {
		t.Errorf("autopilot over pipe failed: %+v", resPipe)
	}
	if !reflect.DeepEqual(resPipe, resTCP) {
		t.Errorf("pipe vs TCP diverged:\n pipe %+v\n tcp  %+v", resPipe, resTCP)
	}
}

// TestServerFailsOnClosedConn: on a connection that is already gone,
// neither end hangs — the client's episode fails with an error, and Serve
// (for which a closed connection is the peer's hang-up) returns having
// run nothing.
func TestServerFailsOnClosedConn(t *testing.T) {
	w := testWorld(t)
	serverConn, clientConn := transport.Pipe()
	clientConn.Close()
	serverConn.Close()

	srv := NewServer(w.NewEpisode, w.Config().Hash())
	if err := srv.Serve(serverConn); err != nil {
		t.Errorf("Serve over a closed conn = %v, want a clean nil", err)
	}
	if got := srv.TotalSessions(); got != 0 {
		t.Errorf("TotalSessions = %d over a closed conn", got)
	}
	client := simclient.NewClient(clientConn)
	from, to := mission(t, w, 4)
	_, err := client.RunEpisode(sim.EpisodeConfig{From: from, To: to, Seed: 4}, idleDriver())
	if err == nil {
		t.Error("episode over a closed conn did not error")
	}
}

// TestClientRejectsGarbage: a message that is not protocol — as the first
// thing on the connection, or after a valid hello — kills the client's
// connection with an error instead of being skipped.
func TestClientRejectsGarbage(t *testing.T) {
	for name, prelude := range map[string][][]byte{
		"instead of the hello": nil,
		"after the hello":      {proto.EncodeEnvelope(0, proto.EncodeHello(7))},
	} {
		serverConn, clientConn := transport.Pipe()
		go func() {
			for _, msg := range append(prelude, []byte{1, 2, 3}) {
				_ = serverConn.Send(msg)
			}
		}()
		client := simclient.NewClient(clientConn)
		if _, err := client.RunEpisode(sim.EpisodeConfig{}, idleDriver()); err == nil {
			t.Errorf("garbage %s did not error", name)
		}
		if client.Err() == nil {
			t.Errorf("garbage %s left the connection alive", name)
		}
		serverConn.Close()
		clientConn.Close()
	}
}
