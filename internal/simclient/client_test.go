package simclient

import (
	"strings"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/proto"
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
