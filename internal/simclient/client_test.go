package simclient

import (
	"strings"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/transport"
)

// TestRecvLoopOverflowDoesNotStallOtherSessions is the regression test for
// the demux head-of-line hazard: a session whose inbound buffer fills (its
// episode loop stopped consuming) must be failed and dropped, while every
// other session on the connection keeps receiving. The old unconditional
// channel send parked the receive loop on the wedged session forever.
func TestRecvLoopOverflowDoesNotStallOtherSessions(t *testing.T) {
	clientEnd, serverEnd := transport.Pipe()
	defer clientEnd.Close()
	c := NewClient(clientEnd)
	if err := serverEnd.Send(proto.EncodeEnvelope(0, proto.EncodeHello(1))); err != nil {
		t.Fatal(err)
	}

	wedged, wedgedSess := c.register()
	live, liveSess := c.register()

	// Stuff the wedged session past its buffer depth; nobody consumes.
	frame := proto.AppendControl(nil, &proto.Control{Steer: 0.1})
	for i := 0; i < cap(wedgedSess.data)+1; i++ {
		if err := serverEnd.Send(proto.EncodeEnvelope(wedged, frame)); err != nil {
			t.Fatal(err)
		}
	}

	// The demux loop must still route to the live session promptly.
	if err := serverEnd.Send(proto.EncodeEnvelope(live, frame)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-liveSess.data:
	case <-time.After(5 * time.Second):
		t.Fatal("demux loop stalled: live session starved by a wedged session")
	}

	// The wedged session was failed, not silently dropped.
	select {
	case err := <-wedgedSess.fail:
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("fail error = %v, want buffer-overflow diagnostic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged session never received its failure")
	}

	// And unregistered, so its ID no longer routes.
	c.mu.Lock()
	_, still := c.sessions[wedged]
	open := len(c.sessions)
	c.mu.Unlock()
	if still {
		t.Error("overflowed session still registered")
	}
	if open != 1 {
		t.Errorf("%d sessions registered, want 1 (the live session)", open)
	}
}

// nopDriver is a Driver for tests whose episodes never see a frame.
type nopDriver struct{}

func (nopDriver) Drive(*proto.SensorFrame) (physics.Control, error) { return physics.Control{}, nil }
func (nopDriver) Reset()                                            {}

// TestRunEpisodeOnDeadClientSendsNoOpen: a client whose receive loop has
// died while its connection stays open must fail a new episode without
// sending the open, or the server would simulate a session nobody reads.
func TestRunEpisodeOnDeadClientSendsNoOpen(t *testing.T) {
	clientEnd, serverEnd := transport.Pipe()
	c := NewClient(clientEnd)
	// A second session-0 message after the hello kills the receive loop.
	for i := 0; i < 2; i++ {
		if err := serverEnd.Send(proto.EncodeEnvelope(0, proto.EncodeHello(1))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("receive loop survived an unexpected session-0 message")
	}

	_, err := c.RunEpisode(sim.EpisodeConfig{}, nopDriver{})
	if err == nil || !strings.Contains(err.Error(), "unexpected message on session 0") {
		t.Errorf("RunEpisode = %v, want the receive loop's error", err)
	}
	// Recv drains anything buffered before reporting the peer's close.
	clientEnd.Close()
	if msg, err := serverEnd.Recv(); err == nil {
		t.Errorf("server received %d bytes, want no open", len(msg))
	}
}
