package commfault

import (
	"sync"

	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// Link faults the wire path itself: it wraps a transport.Conn and holds a
// random subset of outgoing messages in flight, releasing them a bounded
// number of sends later. Encoded envelopes cross the link unmodified —
// only their timing and relative order change, so every byte the peer
// decodes is still exactly what the sender encoded.
//
// Link never discards a message: the simulator protocol is lock-step
// request/response, so a genuinely lost message would deadlock both ends
// rather than degrade them. Loss is modeled above the wire by the Drop
// injector (the actuator holds its setpoint), and on the wire as
// unbounded-but-finite delay. Close flushes everything still held.
//
// Determinism: hold decisions and release deadlines come from the Link's
// own rng.Stream, so a given message sequence faults identically on every
// run regardless of scheduling.
type Link struct {
	// HoldProb is the probability a message is held instead of sent.
	HoldProb float64
	// Horizon bounds both the in-flight hold count and the extra sends a
	// held message may wait before release.
	Horizon int

	mu    sync.Mutex
	inner transport.Conn
	r     *rng.Stream
	seq   int
	held  []heldMsg
}

// heldMsg is one message parked on the link: release is the seq at which
// it must go out at the latest.
type heldMsg struct {
	seq     int
	release int
	buf     []byte
}

var _ transport.Conn = (*Link)(nil)

// NewLink wraps conn with the default wire fault (30% of messages held,
// horizon 4). The Link owns r; callers must not share the stream.
func NewLink(conn transport.Conn, r *rng.Stream) *Link {
	return &Link{HoldProb: 0.3, Horizon: 4, inner: conn, r: r}
}

// MaxDisplacement bounds how many positions a message can move in the
// delivered order relative to the sent order: a held message waits at most
// Horizon+1 further sends, each of which may itself flush up to Horizon
// earlier holds ahead of it.
func (l *Link) MaxDisplacement() int { return 2*l.Horizon + 1 }

// Send implements transport.Conn.
func (l *Link) Send(msg []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	if l.r.Bool(l.HoldProb) && len(l.held) < l.Horizon {
		// Park a copy — the caller may reuse msg immediately, like any
		// transport Send.
		cp := make([]byte, len(msg))
		copy(cp, msg)
		l.held = append(l.held, heldMsg{
			seq:     l.seq,
			release: l.seq + 1 + l.r.Intn(l.Horizon),
			buf:     cp,
		})
		telemetry.CommLinkHeld.Inc()
		return l.flushDueLocked()
	}
	if err := l.inner.Send(msg); err != nil {
		return err
	}
	return l.flushDueLocked()
}

// flushDueLocked sends every held message whose release deadline has
// passed, oldest first.
func (l *Link) flushDueLocked() error {
	kept := l.held[:0]
	for i, h := range l.held {
		if h.release > l.seq {
			kept = append(kept, h)
			continue
		}
		if err := l.inner.Send(h.buf); err != nil {
			kept = append(kept, l.held[i:]...)
			l.held = kept
			return err
		}
		telemetry.CommLinkFlushed.Inc()
	}
	l.held = kept
	return nil
}

// Flush releases every held message immediately, oldest first.
func (l *Link) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushAllLocked()
}

func (l *Link) flushAllLocked() error {
	for i, h := range l.held {
		if err := l.inner.Send(h.buf); err != nil {
			l.held = append(l.held[:0], l.held[i:]...)
			return err
		}
		telemetry.CommLinkFlushed.Inc()
	}
	l.held = l.held[:0]
	return nil
}

// Recv implements transport.Conn (the fault is send-side only).
func (l *Link) Recv() ([]byte, error) { return l.inner.Recv() }

// Close implements transport.Conn: held messages are flushed first so the
// peer never loses the tail of a conversation.
func (l *Link) Close() error {
	l.mu.Lock()
	flushErr := l.flushAllLocked()
	l.mu.Unlock()
	closeErr := l.inner.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
