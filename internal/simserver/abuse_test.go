package simserver

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/transport"
)

// waitIdle polls until every session goroutine of srv has exited.
func waitIdle(t testing.TB, srv *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		active, routed := srv.active, len(srv.sessions)
		srv.mu.Unlock()
		if active == 0 && routed == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d active sessions (%d routed)", active, routed)
		}
	}
}

// TestAbandonedSessionIsAborted: when the client gives up on an episode
// mid-stream (its driver fails), the server must be told, stop simulating
// that session and count it failed — not park the session goroutine and
// its episode on a control that will never come for the rest of the
// connection's life. The connection itself stays usable.
func TestAbandonedSessionIsAborted(t *testing.T) {
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, w.NewEpisode)
	client := simclient.NewClient(clientConn)

	from, to := mission(t, w, 5)
	cfg := sim.EpisodeConfig{From: from, To: to, Seed: 5, TimeoutSec: 30.0}
	boom := errors.New("driver boom")
	_, err := client.RunEpisode(cfg, failingDriver{frame: 3, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("RunEpisode = %v, want the driver's error", err)
	}
	waitIdle(t, srv)
	if got := srv.FailedSessions(); got != 1 {
		t.Errorf("FailedSessions = %d after the client abandoned a session, want 1", got)
	}

	cfg.TimeoutSec = 1.0
	res, err := client.RunEpisode(cfg, idleDriver())
	if err != nil {
		t.Fatalf("connection unusable after an aborted session: %v", err)
	}
	if res.Frames == 0 {
		t.Errorf("follow-up episode made no progress: %+v", res)
	}
	if got := srv.CompletedSessions(); got != 1 {
		t.Errorf("CompletedSessions = %d, want 1", got)
	}
	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
}

// failingDriver idles until the given frame, then fails.
type failingDriver struct {
	frame uint32
	err   error
}

func (d failingDriver) Reset() {}

func (d failingDriver) Drive(f *proto.SensorFrame) (physics.Control, error) {
	if f.Frame >= d.frame {
		return physics.Control{}, d.err
	}
	return physics.Control{}, nil
}

// TestProtocolAbuse feeds the server each malformed exchange a broken or
// foreign client could produce. Abuse the protocol names as harmless is
// dropped and the connection keeps serving; everything else ends Serve with
// an error saying what was wrong — never a hang or a panic.
func TestProtocolAbuse(t *testing.T) {
	w := testWorld(t)
	open := openMsg(t, w, 1, 1, 30.0)
	versioned := func(v byte) []byte {
		msg := controlMsg(1, 0)
		msg[0] = v // the envelope's version byte
		return msg
	}

	for _, tc := range []struct {
		name    string
		msgs    [][]byte
		wantErr string // substring of Serve's error; "" means the messages are tolerated
	}{
		{"control for an unknown session", [][]byte{controlMsg(42, 0)}, ""},
		{"abort for an unknown session", [][]byte{proto.EncodeEnvelope(42, proto.EncodeSessionError("bye"))}, ""},
		{"duplicate open", [][]byte{open, open}, "session 1 already open"},
		{"open on session 0", [][]byte{openEnvelope(0, sim.EpisodeConfig{})}, "session 0"},
		{"truncated open", [][]byte{open[:len(open)-5]}, "open episode"},
		{"kind 8 from a client", [][]byte{proto.EncodeEnvelope(0, []byte{proto.Version, 8, 0, 0})}, "unknown kind 8"},
		{"hello from a client", [][]byte{proto.EncodeEnvelope(0, proto.EncodeHello(1))}, "unexpected kind 10"},
		{"episode result from a client", [][]byte{proto.EncodeEnvelope(1, proto.EncodeEpisodeResult(&sim.Result{}))}, "unexpected kind 7"},
		{"sensor frame from a client", [][]byte{proto.EncodeEnvelope(1, proto.AppendSensorFrame(nil, &proto.SensorFrame{}))}, "unexpected kind 1"},
		{"v1-versioned message", [][]byte{versioned(1)}, "version 1, want 3"},
		{"v2-versioned message", [][]byte{versioned(2)}, "version 2, want 3"},
		{"not an envelope", [][]byte{proto.AppendControl(nil, &proto.Control{})}, "not an envelope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, clientConn, serveDone := startServer(t, w.NewEpisode)
			go func() { // keep the server's sends from blocking
				for {
					if _, err := clientConn.Recv(); err != nil {
						return
					}
				}
			}()
			for _, msg := range tc.msgs {
				if err := clientConn.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			if tc.wantErr == "" {
				clientConn.Close()
			}
			var err error
			select {
			case err = <-serveDone:
			case <-time.After(10 * time.Second):
				t.Fatal("Serve neither failed nor drained")
			}
			clientConn.Close()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("Serve = %v, want the abuse dropped and a clean shutdown", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("Serve = %v, want an error containing %q", err, tc.wantErr)
			}
			waitIdle(t, srv)
		})
	}
}

// splitMessages cuts fuzz input into messages: each is a one-byte length
// followed by that many bytes (clamped to what is left).
func splitMessages(data []byte) [][]byte {
	var msgs [][]byte
	for len(data) > 0 {
		n := int(data[0])
		data = data[1:]
		if n > len(data) {
			n = len(data)
		}
		if n > 0 {
			msgs = append(msgs, data[:n])
		}
		data = data[n:]
	}
	return msgs
}

// FuzzServerDemux hammers the session demux with arbitrary message
// sequences: whatever a peer sends, Serve must return (nil or an error)
// once the peer hangs up — no panic, no hang — with every session
// goroutine drained. The seed corpus (testdata/fuzz/FuzzServerDemux) holds
// whole exchanges: an episode, a control overflow, an abort and reopen, a
// duplicate open, a rejected open, traffic for unknown sessions.
func FuzzServerDemux(f *testing.F) {
	factory := demuxFactory(testWorld(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, _ := serveExchange(t, factory, data)
		if !srv.Done() {
			t.Error("Done false after Serve returned")
		}
	})
}

// demuxFactory builds FuzzServerDemux's episodes. Only the mission, seed
// and timeout reach the world: a fuzzed actor count or weather byte would
// make an input arbitrarily slow without touching the demux.
func demuxFactory(w *sim.World) EpisodeFactory {
	return func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		return w.NewEpisode(sim.EpisodeConfig{From: cfg.From, To: cfg.To, Seed: cfg.Seed, TimeoutSec: cfg.TimeoutSec})
	}
}

// serveExchange sends the messages of data (see splitMessages) to a fresh
// server, hangs up, and returns the drained server and Serve's verdict.
func serveExchange(t *testing.T, factory EpisodeFactory, data []byte) (*Server, error) {
	srv, clientConn, serveDone := startServer(t, factory)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			msg, err := clientConn.Recv()
			if err != nil {
				return
			}
			transport.Recycle(msg)
		}
	}()
	for _, msg := range splitMessages(data) {
		if clientConn.Send(msg) != nil {
			break // Serve already failed and hung up
		}
	}
	clientConn.Close()
	var err error
	select {
	case err = <-serveDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the peer hung up")
	}
	<-drained
	waitIdle(t, srv)
	return srv, err
}

// TestFuzzServerDemuxSeedsReachTheirPaths keeps the named seed corpus
// meaningful across protocol versions: each seed must get past the
// version check to the demux path it is named after, which a seed in an
// older wire form would not.
func TestFuzzServerDemuxSeedsReachTheirPaths(t *testing.T) {
	factory := demuxFactory(testWorld(t))
	for _, tc := range []struct {
		seed    string
		wantErr string // substring of Serve's error; "" means a clean shutdown
		total   int    // sessions opened
		failed  int    // sessions aborted; -1 when scheduling decides
	}{
		{"abort-then-reopen", "", 2, 1},
		{"control-overflow", "", 1, -1},
		{"duplicate-open", "session 1 already open", 1, 0},
		{"empty-envelope", "envelope payload", 0, 0},
		{"episode-two-controls", "", 1, -1},
		{"factory-rejects-open", "", 1, 1},
		{"unknown-session-traffic", "unexpected kind 10", 0, 0},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzServerDemux", tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			quoted, ok2 := strings.CutSuffix(quoted, ")")
			data, err := strconv.Unquote(quoted)
			if !ok || !ok2 || err != nil {
				t.Fatalf("seed is not one []byte corpus entry: %v", err)
			}
			srv, err := serveExchange(t, factory, []byte(data))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("Serve = %v, want a clean shutdown", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("Serve = %v, want an error containing %q", err, tc.wantErr)
			}
			if got := srv.TotalSessions(); got != tc.total {
				t.Errorf("TotalSessions = %d, want %d", got, tc.total)
			}
			if got := srv.FailedSessions(); tc.failed >= 0 && got != tc.failed {
				t.Errorf("FailedSessions = %d, want %d", got, tc.failed)
			}
		})
	}
}
