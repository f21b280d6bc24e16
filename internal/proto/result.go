// Full-result message: EpisodeResult is the complete wire form of
// sim.Result (violation list included) and every session's terminal
// message, sent straight after the done-frame — so campaign metrics never
// need to reach into the server's address space, and an in-process engine
// and a remote worker are the same thing to a campaign.

package proto

import (
	"fmt"
)

// MaxViolations bounds the violation list on the wire. Violations are
// debounced events (one per kind per cooldown window), so real episodes
// produce a handful; a count beyond this is stream corruption.
const MaxViolations = 1 << 14

// WireViolation is one debounced violation event in wire form.
type WireViolation struct {
	// Kind is the sim.ViolationKind numeric value.
	Kind uint8
	// TimeSec is the episode time at which the event started.
	TimeSec float64
	// PosX and PosY are where the ego vehicle was.
	PosX, PosY float64
}

// EpisodeResult is the complete wire form of a finished episode's
// sim.Result.
type EpisodeResult struct {
	// Status is the sim.Status numeric value.
	Status uint8
	// Success reports whether the mission completed within its budget.
	Success bool
	// Frames is the episode length in simulation frames.
	Frames uint32
	// DistanceM, DurationS and RouteLengthM summarize the drive.
	DistanceM    float64
	DurationS    float64
	RouteLengthM float64
	// Violations are the debounced events.
	Violations []WireViolation
}

// EncodeEpisodeResult serializes r with its kind tag. Violation lists
// beyond MaxViolations are truncated rather than rejected: the result path
// must not itself error.
func EncodeEpisodeResult(res *EpisodeResult) []byte {
	viols := res.Violations
	if len(viols) > MaxViolations {
		viols = viols[:MaxViolations]
	}
	buf := make([]byte, 0, 2+1+1+4+3*8+2+len(viols)*(1+3*8))
	buf = append(buf, Version, byte(KindEpisodeResult))
	buf = append(buf, res.Status, boolByte(res.Success))
	buf = appendUint32(buf, res.Frames)
	buf = appendFloat(buf, res.DistanceM)
	buf = appendFloat(buf, res.DurationS)
	buf = appendFloat(buf, res.RouteLengthM)
	buf = appendUint16(buf, uint16(len(viols)))
	for _, v := range viols {
		buf = append(buf, v.Kind)
		buf = appendFloat(buf, v.TimeSec)
		buf = appendFloat(buf, v.PosX)
		buf = appendFloat(buf, v.PosY)
	}
	return buf
}

// DecodeEpisodeResult parses an encoded full episode result.
func DecodeEpisodeResult(buf []byte) (*EpisodeResult, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindEpisodeResult {
		return nil, fmt.Errorf("%w: kind %d is not an episode result", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	var res EpisodeResult
	res.Status = r.byte()
	res.Success = r.byte() != 0
	res.Frames = r.uint32()
	res.DistanceM = r.float()
	res.DurationS = r.float()
	res.RouteLengthM = r.float()
	n := int(r.uint16())
	if n > MaxViolations {
		return nil, fmt.Errorf("%w: %d violations exceeds limit", ErrCodec, n)
	}
	if n > 0 {
		res.Violations = make([]WireViolation, n)
		for i := range res.Violations {
			res.Violations[i].Kind = r.byte()
			res.Violations[i].TimeSec = r.float()
			res.Violations[i].PosX = r.float()
			res.Violations[i].PosY = r.float()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: episode result: %v", ErrCodec, r.err)
	}
	return &res, nil
}
