package simserver

import (
	"errors"
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
	v1 := controlMsg(1, 0)
	v1[0] = 1 // the envelope's version byte
	batch := batchMsg(proto.OpenBatchEntry{SID: 2, Config: sim.EpisodeConfig{Seed: 2}})

	for _, tc := range []struct {
		name    string
		msgs    [][]byte
		wantErr string // substring of Serve's error; "" means the messages are tolerated
	}{
		{"control for an unknown session", [][]byte{controlMsg(42, 0)}, ""},
		{"abort for an unknown session", [][]byte{proto.EncodeEnvelope(42, proto.EncodeSessionError("bye"))}, ""},
		{"duplicate open", [][]byte{open, open}, "session 1 already open"},
		{"open on session 0", [][]byte{batchMsg(proto.OpenBatchEntry{SID: 0})}, "session 0"},
		{"batch on a non-zero session", [][]byte{proto.EncodeEnvelope(3, proto.EncodeOpenEpisodeBatch(nil))}, "want session 0"},
		{"bare open outside a batch", [][]byte{proto.EncodeEnvelope(1, proto.EncodeOpenEpisode(&sim.EpisodeConfig{}))}, "unexpected kind 5"},
		{"hello from a client", [][]byte{proto.EncodeEnvelope(0, proto.EncodeHello(1))}, "unexpected kind 10"},
		{"episode result from a client", [][]byte{proto.EncodeEnvelope(1, proto.EncodeEpisodeResult(&sim.Result{}))}, "unexpected kind 7"},
		{"sensor frame from a client", [][]byte{proto.EncodeEnvelope(1, proto.AppendSensorFrame(nil, &proto.SensorFrame{}))}, "unexpected kind 1"},
		{"truncated batch", [][]byte{batch[:len(batch)-5]}, "batch"},
		{"v1-versioned message", [][]byte{v1}, "version 1, want 2"},
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
	w := testWorld(f)
	// Only the mission, seed and timeout reach the world: a fuzzed actor
	// count or weather byte would make an input arbitrarily slow without
	// touching the demux.
	factory := func(cfg sim.EpisodeConfig) (*sim.Episode, error) {
		return w.NewEpisode(sim.EpisodeConfig{From: cfg.From, To: cfg.To, Seed: cfg.Seed, TimeoutSec: cfg.TimeoutSec})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
		select {
		case <-serveDone:
		case <-time.After(30 * time.Second):
			t.Fatal("Serve did not return after the peer hung up")
		}
		<-drained
		waitIdle(t, srv)
		if !srv.Done() {
			t.Error("Done false after Serve returned")
		}
	})
}
