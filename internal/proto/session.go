// Session-multiplexed framing: an Envelope tags every message with a
// session ID so one transport.Conn carries many concurrent episodes.
// Session 0 is the connection's control channel — the server's Hello, the
// client's OpenEpisodeBatch — and never names an episode (client session
// IDs start at 1).

package proto

import (
	"errors"
	"fmt"
	"math"

	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/world"
)

// MaxReason bounds a SessionError reason string on the wire.
const MaxReason = 1 << 12

// EnvelopeOverhead is the byte cost of enveloping an inner message: the
// envelope's own version/kind header plus the session ID.
const EnvelopeOverhead = 2 + 4

// AppendEnvelopeHeader appends only the envelope framing for session, so
// hot paths can append the inner message directly behind it (via
// AppendSensorFrame and friends) without materializing it separately.
func AppendEnvelopeHeader(dst []byte, session uint32) []byte {
	dst = append(dst, Version, byte(KindEnvelope))
	return appendUint32(dst, session)
}

// EncodeEnvelope wraps an already-encoded inner message with a session ID.
func EncodeEnvelope(session uint32, inner []byte) []byte {
	dst := AppendEnvelopeHeader(make([]byte, 0, EnvelopeOverhead+len(inner)), session)
	return append(dst, inner...)
}

// DecodeEnvelope unwraps an envelope, returning the session ID and the
// inner encoded message (a subslice of buf, not a copy).
func DecodeEnvelope(buf []byte) (uint32, []byte, error) {
	if k, err := Kind(buf); err != nil {
		return 0, nil, err
	} else if k != KindEnvelope {
		return 0, nil, fmt.Errorf("%w: kind %d is not an envelope", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	session := r.uint32()
	if r.err != nil {
		return 0, nil, fmt.Errorf("%w: envelope: %v", ErrCodec, r.err)
	}
	inner := buf[r.off:]
	if _, err := Kind(inner); err != nil {
		return 0, nil, fmt.Errorf("%w: envelope payload: %v", ErrCodec, err)
	}
	return session, inner, nil
}

// EncodeHello serializes the server's hello: the hash of the world it
// simulates (sim.WorldConfig.Hash). A campaign configured for a different
// world must fail at dial time instead of silently producing
// non-bit-identical results, so the hash is the hello's whole payload and
// is not optional.
func EncodeHello(worldHash uint64) []byte {
	buf := make([]byte, 0, 2+8)
	buf = append(buf, Version, byte(KindHello))
	return appendUint64(buf, worldHash)
}

// DecodeHello parses an encoded hello, returning the server's world hash.
func DecodeHello(buf []byte) (uint64, error) {
	if k, err := Kind(buf); err != nil {
		return 0, err
	} else if k != KindHello {
		return 0, fmt.Errorf("%w: kind %d is not a hello", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	hash := r.uint64()
	if r.err != nil {
		return 0, fmt.Errorf("%w: hello: %v", ErrCodec, r.err)
	}
	return hash, nil
}

// ErrWireRange is wrapped by CheckEpisodeConfig: a scenario's integer
// field does not fit its width in the open-episode encoding.
var ErrWireRange = errors.New("proto: value outside its wire range")

// CheckEpisodeConfig reports whether c's node IDs fit a uint32, its weather
// a uint8 and its actor counts a uint16: the widths EncodeOpenEpisode
// narrows them to without checking.
func CheckEpisodeConfig(c sim.EpisodeConfig) error {
	for _, f := range [...]struct {
		name   string
		v, max int64
	}{
		{"from node", int64(c.From), math.MaxUint32},
		{"to node", int64(c.To), math.MaxUint32},
		{"weather", int64(c.Weather), math.MaxUint8},
		{"npcs", int64(c.NumNPCs), math.MaxUint16},
		{"pedestrians", int64(c.NumPedestrians), math.MaxUint16},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("%w: %s %d outside [0, %d]", ErrWireRange, f.name, f.v, f.max)
		}
	}
	return nil
}

// EncodeOpenEpisode serializes one episode's scenario with its kind tag;
// it travels only embedded in an OpenEpisodeBatch entry.
func EncodeOpenEpisode(c *sim.EpisodeConfig) []byte {
	buf := make([]byte, 0, 2+4+4+8+1+2+2+8+8)
	buf = append(buf, Version, byte(KindOpenEpisode))
	buf = appendUint32(buf, uint32(c.From))
	buf = appendUint32(buf, uint32(c.To))
	buf = appendUint64(buf, c.Seed)
	buf = append(buf, uint8(c.Weather))
	buf = appendUint16(buf, uint16(c.NumNPCs))
	buf = appendUint16(buf, uint16(c.NumPedestrians))
	buf = appendFloat(buf, c.TimeoutSec)
	buf = appendFloat(buf, c.GoalRadius)
	return buf
}

// DecodeOpenEpisode parses an encoded open-episode request.
func DecodeOpenEpisode(buf []byte) (*sim.EpisodeConfig, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindOpenEpisode {
		return nil, fmt.Errorf("%w: kind %d is not an open-episode", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	var c sim.EpisodeConfig
	c.From = world.NodeID(r.uint32())
	c.To = world.NodeID(r.uint32())
	c.Seed = r.uint64()
	c.Weather = world.Weather(r.byte())
	c.NumNPCs = int(r.uint16())
	c.NumPedestrians = int(r.uint16())
	c.TimeoutSec = r.float()
	c.GoalRadius = r.float()
	if r.err != nil {
		return nil, fmt.Errorf("%w: open episode: %v", ErrCodec, r.err)
	}
	return &c, nil
}

// EncodeSessionError serializes the reason one session closed abnormally:
// its episode failed (server) or was abandoned (client). Oversized reasons
// are truncated rather than rejected: the error path must not itself error.
func EncodeSessionError(reason string) []byte {
	if len(reason) > MaxReason {
		reason = reason[:MaxReason]
	}
	buf := make([]byte, 0, 2+2+len(reason))
	buf = append(buf, Version, byte(KindSessionError))
	buf = appendUint16(buf, uint16(len(reason)))
	buf = append(buf, reason...)
	return buf
}

// DecodeSessionError parses an encoded session error, returning its reason.
func DecodeSessionError(buf []byte) (string, error) {
	if k, err := Kind(buf); err != nil {
		return "", err
	} else if k != KindSessionError {
		return "", fmt.Errorf("%w: kind %d is not a session error", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	n := int(r.uint16())
	if n > MaxReason {
		return "", fmt.Errorf("%w: reason length %d exceeds limit", ErrCodec, n)
	}
	raw := r.bytes(n)
	if r.err != nil {
		return "", fmt.Errorf("%w: session error: %v", ErrCodec, r.err)
	}
	return string(raw), nil
}
