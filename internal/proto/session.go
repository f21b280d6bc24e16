// Session-multiplexed framing: an Envelope tags every message with a
// session ID so one transport.Conn carries many concurrent episodes.
// Session 0 is the connection's control channel — the server's Hello, the
// client's OpenEpisodeBatch — and never names an episode (client session
// IDs start at 1).

package proto

import (
	"fmt"
)

// MaxReason bounds a SessionError reason string on the wire.
const MaxReason = 1 << 12

// OpenEpisode asks the server to start an episode on the session its
// batch entry names. It is the wire form of sim.EpisodeConfig: the server
// owns the world and builds the episode from these parameters.
type OpenEpisode struct {
	// From and To are the mission's start and goal intersections (NodeIDs).
	From, To uint32
	// Seed drives all episode randomness.
	Seed uint64
	// Weather is the world.Weather numeric value.
	Weather uint8
	// NumNPCs and NumPedestrians populate the town.
	NumNPCs        uint16
	NumPedestrians uint16
	// TimeoutSec and GoalRadius override episode defaults when non-zero.
	TimeoutSec float64
	GoalRadius float64
}

// SessionError closes one session abnormally, with a diagnostic: from the
// server, the episode failed (e.g. its construction was rejected); from
// the client, it abandoned the episode.
type SessionError struct {
	Reason string
}

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

// EncodeOpenEpisode serializes o with its kind tag.
func EncodeOpenEpisode(o *OpenEpisode) []byte {
	buf := make([]byte, 0, 2+4+4+8+1+2+2+8+8)
	buf = append(buf, Version, byte(KindOpenEpisode))
	buf = appendUint32(buf, o.From)
	buf = appendUint32(buf, o.To)
	buf = appendUint64(buf, o.Seed)
	buf = append(buf, o.Weather)
	buf = appendUint16(buf, o.NumNPCs)
	buf = appendUint16(buf, o.NumPedestrians)
	buf = appendFloat(buf, o.TimeoutSec)
	buf = appendFloat(buf, o.GoalRadius)
	return buf
}

// DecodeOpenEpisode parses an encoded open-episode request.
func DecodeOpenEpisode(buf []byte) (*OpenEpisode, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindOpenEpisode {
		return nil, fmt.Errorf("%w: kind %d is not an open-episode", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	var o OpenEpisode
	o.From = r.uint32()
	o.To = r.uint32()
	o.Seed = r.uint64()
	o.Weather = r.byte()
	o.NumNPCs = r.uint16()
	o.NumPedestrians = r.uint16()
	o.TimeoutSec = r.float()
	o.GoalRadius = r.float()
	if r.err != nil {
		return nil, fmt.Errorf("%w: open episode: %v", ErrCodec, r.err)
	}
	return &o, nil
}

// EncodeSessionError serializes e with its kind tag. Oversized reasons are
// truncated rather than rejected: the error path must not itself error.
func EncodeSessionError(e *SessionError) []byte {
	reason := e.Reason
	if len(reason) > MaxReason {
		reason = reason[:MaxReason]
	}
	buf := make([]byte, 0, 2+2+len(reason))
	buf = append(buf, Version, byte(KindSessionError))
	buf = appendUint16(buf, uint16(len(reason)))
	buf = append(buf, reason...)
	return buf
}

// DecodeSessionError parses an encoded session error.
func DecodeSessionError(buf []byte) (*SessionError, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindSessionError {
		return nil, fmt.Errorf("%w: kind %d is not a session error", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	n := int(r.uint16())
	if n > MaxReason {
		return nil, fmt.Errorf("%w: reason length %d exceeds limit", ErrCodec, n)
	}
	raw := r.bytes(n)
	if r.err != nil {
		return nil, fmt.Errorf("%w: session error: %v", ErrCodec, r.err)
	}
	return &SessionError{Reason: string(raw)}, nil
}
