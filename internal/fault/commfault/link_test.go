package commfault

import (
	"testing"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/transport"
)

// envMsg encodes control i wrapped in envelope session i+1 (session 0 is
// the protocol's hello channel).
func envMsg(i int) []byte {
	ctl := &proto.Control{Frame: uint32(i), Steer: float64(i) * 0.01, Throttle: 0.5}
	return proto.EncodeEnvelope(uint32(i+1), proto.AppendControl(nil, ctl))
}

// sendThroughLink pushes n enveloped controls through a faulted link
// (concurrently — the pipe transport is shallow) and returns the session
// IDs in delivered order, verifying each envelope decodes intact.
func sendThroughLink(t *testing.T, link *Link, far transport.Conn, n int, closeAfter bool) []uint32 {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := link.Send(envMsg(i)); err != nil {
				errc <- err
				return
			}
		}
		if closeAfter {
			errc <- link.Close()
			return
		}
		errc <- link.Flush()
	}()
	var order []uint32
	for i := 0; i < n; i++ {
		msg, err := far.Recv()
		if err != nil {
			t.Fatalf("lost message %d/%d: %v", i, n, err)
		}
		session, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			t.Fatalf("delivery %d: corrupted envelope: %v", i, err)
		}
		ctl, err := proto.DecodeControl(inner)
		if err != nil {
			t.Fatalf("delivery %d: corrupted control: %v", i, err)
		}
		if ctl.Frame != session-1 {
			t.Fatalf("delivery %d: payload %d does not match envelope %d", i, ctl.Frame, session)
		}
		transport.Recycle(msg)
		order = append(order, session)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return order
}

func TestLinkDeliversEverythingWithinHorizon(t *testing.T) {
	near, far := transport.Pipe()
	link := NewLink(near, rng.New(21))
	link.HoldProb = 0.5
	const n = 200

	order := sendThroughLink(t, link, far, n, false)

	seen := map[uint32]int{}
	reordered := false
	for pos, session := range order {
		seen[session]++
		disp := pos - int(session-1)
		if disp < 0 {
			disp = -disp
		}
		if disp > link.MaxDisplacement() {
			t.Errorf("session %d displaced %d positions, bound %d", session, disp, link.MaxDisplacement())
		}
		if disp != 0 {
			reordered = true
		}
	}
	for i := 1; i <= n; i++ {
		if seen[uint32(i)] != 1 {
			t.Fatalf("session %d delivered %d times", i, seen[uint32(i)])
		}
	}
	if !reordered {
		t.Error("link with HoldProb 0.5 never reordered over 200 sends")
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDeterministicDeliveryOrder(t *testing.T) {
	run := func() []uint32 {
		near, far := transport.Pipe()
		link := NewLink(near, rng.New(33))
		link.HoldProb = 0.5
		return sendThroughLink(t, link, far, 100, true)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLinkCloseFlushesHeld(t *testing.T) {
	near, far := transport.Pipe()
	link := NewLink(near, rng.New(5))
	link.HoldProb = 1 // park everything the horizon allows
	order := sendThroughLink(t, link, far, 4, true)
	if len(order) != 4 {
		t.Fatalf("received %d of 4 messages after Close", len(order))
	}
}

// FuzzLinkAgainstCodec drives arbitrary hold probabilities, horizons and
// message counts through the wire fault and checks the codec's invariants
// survive: every envelope decodes to exactly the bytes sent, nothing is
// lost or duplicated, and displacement stays within the link's bound.
func FuzzLinkAgainstCodec(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(3), uint8(50))
	f.Add(uint64(7), uint8(100), uint8(1), uint8(100))
	f.Add(uint64(42), uint8(0), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, count, horizon, probPct uint8) {
		near, far := transport.Pipe()
		link := NewLink(near, rng.New(seed))
		link.Horizon = 1 + int(horizon%8)
		link.HoldProb = float64(probPct%101) / 100

		n := int(count)
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := link.Send(envMsg(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- link.Close()
		}()

		seen := map[uint32]bool{}
		for pos := 0; pos < n; pos++ {
			msg, err := far.Recv()
			if err != nil {
				t.Fatalf("lost message %d/%d: %v", pos, n, err)
			}
			session, inner, err := proto.DecodeEnvelope(msg)
			if err != nil {
				t.Fatalf("corrupted envelope at delivery %d: %v", pos, err)
			}
			ctl, err := proto.DecodeControl(inner)
			if err != nil {
				t.Fatalf("corrupted control at delivery %d: %v", pos, err)
			}
			if session == 0 || session > uint32(n) || seen[session] {
				t.Fatalf("delivery %d: unexpected or duplicate session %d", pos, session)
			}
			seen[session] = true
			if ctl.Frame != session-1 {
				t.Fatalf("delivery %d: payload %d does not match envelope %d", pos, ctl.Frame, session)
			}
			disp := pos - int(session-1)
			if disp < 0 {
				disp = -disp
			}
			if disp > link.MaxDisplacement() {
				t.Fatalf("session %d displaced %d, bound %d (horizon %d)", session, disp, link.MaxDisplacement(), link.Horizon)
			}
			transport.Recycle(msg)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}
