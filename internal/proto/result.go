// Full-result message: EpisodeResult is the complete wire form of
// sim.Result (violation list included) and every session's terminal
// message, sent straight after the done-frame — so campaign metrics never
// need to reach into the server's address space, and an in-process engine
// and a remote worker are the same thing to a campaign.

package proto

import (
	"fmt"

	"github.com/avfi/avfi/internal/sim"
)

// MaxViolations bounds the violation list on the wire. Violations are
// debounced events (one per kind per cooldown window), so real episodes
// produce a handful; a count beyond this is stream corruption.
const MaxViolations = 1 << 14

// EncodeEpisodeResult serializes res with its kind tag. Status and each
// violation's kind travel as one byte, Frames as four. Violation lists
// beyond MaxViolations are truncated rather than rejected: the result path
// must not itself error.
func EncodeEpisodeResult(res *sim.Result) []byte {
	viols := res.Violations
	if len(viols) > MaxViolations {
		viols = viols[:MaxViolations]
	}
	buf := make([]byte, 0, 2+1+1+4+3*8+2+len(viols)*(1+3*8))
	buf = append(buf, Version, byte(KindEpisodeResult))
	buf = append(buf, uint8(res.Status), boolByte(res.Success))
	buf = appendUint32(buf, uint32(res.Frames))
	buf = appendFloat(buf, res.DistanceM)
	buf = appendFloat(buf, res.DurationS)
	buf = appendFloat(buf, res.RouteLengthM)
	buf = appendUint16(buf, uint16(len(viols)))
	for _, v := range viols {
		buf = append(buf, uint8(v.Kind))
		buf = appendFloat(buf, v.TimeSec)
		buf = appendFloat(buf, v.Pos.X)
		buf = appendFloat(buf, v.Pos.Y)
	}
	return buf
}

// DecodeEpisodeResult parses an encoded full episode result. It accepts
// only what EncodeEpisodeResult produces: a success byte other than 0 or 1,
// or bytes after the last violation, are a codec error.
func DecodeEpisodeResult(buf []byte) (*sim.Result, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindEpisodeResult {
		return nil, fmt.Errorf("%w: kind %d is not an episode result", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	var res sim.Result
	res.Status = sim.Status(r.byte())
	success := r.byte()
	res.Success = success == 1
	res.Frames = int(r.uint32())
	res.DistanceM = r.float()
	res.DurationS = r.float()
	res.RouteLengthM = r.float()
	n := int(r.uint16())
	if n > MaxViolations {
		return nil, fmt.Errorf("%w: %d violations exceeds limit", ErrCodec, n)
	}
	if n > 0 {
		res.Violations = make([]sim.Violation, n)
		for i := range res.Violations {
			v := &res.Violations[i]
			v.Kind = sim.ViolationKind(r.byte())
			v.TimeSec = r.float()
			v.Pos.X = r.float()
			v.Pos.Y = r.float()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: episode result: %v", ErrCodec, r.err)
	}
	if success > 1 {
		return nil, fmt.Errorf("%w: episode result: success byte %d", ErrCodec, success)
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: episode result: %d trailing bytes", ErrCodec, len(buf)-r.off)
	}
	return &res, nil
}
