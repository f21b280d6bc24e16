// Delta-encoded sensor frames: consecutive frames of one episode differ
// in a small fraction of their pixels (the camera pans slowly against a
// mostly static scene), yet every frame ships the full pixel payload.
// KindSensorFrameDelta encodes a frame's pixels as a sparse patch against
// the previous frame on the same session — XOR against the prior pixels,
// run-length encoding the zero (unchanged) runs — while every scalar
// field travels verbatim. Reconstruction is byte-exact: the decoded
// frame re-encodes identically to its full-frame encoding (fuzz-pinned),
// so campaigns are bit-identical whichever encoding carried them.
//
// Wire form (big-endian, after the version/kind header):
//
//	Frame   uint32
//	TimeSec float64
//	ImageW  uint16   — must equal the previous frame's geometry
//	ImageH  uint16
//	opsLen  uint32   — byte length of the pixel patch stream
//	ops     repeated (skip uvarint, lit uvarint, lit XOR bytes),
//	         covering exactly ImageW*ImageH*3 pixel bytes
//	Speed, GPSX, GPSY float64
//	beams   uint16 + beams float64 lidar ranges
//	Command, Done, Status bytes
//
// The encoder only emits a delta strictly smaller than the frame's full
// encoding and falls back to a keyframe otherwise (first frame, geometry
// change, or a patch that would not pay for itself). Both message sizes
// share every non-pixel byte, so "delta smaller than full" reduces to
// "patch stream shorter than the pixel payload" — which also proves a
// delta frame can never exceed the full frame's transport bound. That is
// why delta encoding is simply always on: it never costs bytes.

package proto

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/avfi/avfi/internal/telemetry"
)

// deltaMinSkip is the shortest unchanged run worth breaking a literal
// for: ending one (skip, lit) pair and opening the next costs at least
// two varint bytes, so shorter zero gaps are cheaper carried as literal
// XOR zeros. Encoder policy only — decoders accept any valid patch.
const deltaMinSkip = 3

// AppendSensorFrameDelta appends cur's delta encoding against prev (kind
// tag included) to dst. ok is false — with dst returned unchanged — when
// no delta may be emitted: mismatched geometry, or a patch stream at
// least as large as the full pixel payload (the delta would not beat
// AppendSensorFrame). prev must be the frame previously sent on the same
// stream; only its Pixels are read.
func AppendSensorFrameDelta(dst []byte, prev, cur *SensorFrame) ([]byte, bool) {
	if prev.ImageW != cur.ImageW || prev.ImageH != cur.ImageH ||
		len(prev.Pixels) != len(cur.Pixels) {
		return dst, false
	}
	base := len(dst)
	buf := append(dst, Version, byte(KindSensorFrameDelta))
	buf = binary.BigEndian.AppendUint32(buf, cur.Frame)
	buf = appendFloat(buf, cur.TimeSec)
	buf = binary.BigEndian.AppendUint16(buf, cur.ImageW)
	buf = binary.BigEndian.AppendUint16(buf, cur.ImageH)
	opsAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // opsLen, backfilled below
	var ok bool
	if buf, ok = appendPixelPatch(buf, prev.Pixels, cur.Pixels); !ok {
		return dst[:base], false
	}
	binary.BigEndian.PutUint32(buf[opsAt:], uint32(len(buf)-opsAt-4))
	buf = appendFloat(buf, cur.Speed)
	buf = appendFloat(buf, cur.GPSX)
	buf = appendFloat(buf, cur.GPSY)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(cur.Lidar)))
	for _, v := range cur.Lidar {
		buf = appendFloat(buf, v)
	}
	buf = append(buf, cur.Command, boolByte(cur.Done), cur.Status)
	return buf, true
}

// appendPixelPatch emits the (skip, lit, XOR bytes) op stream for cur
// against prev, aborting (ok false) as soon as the stream reaches the
// size of the raw pixel payload — the break-even point past which a
// keyframe is cheaper.
func appendPixelPatch(dst []byte, prev, cur []byte) ([]byte, bool) {
	n := len(cur)
	budget := len(dst) + n // strictly-smaller-than-full bound
	var varint [binary.MaxVarintLen64]byte
	i := 0
	for i < n {
		runStart := i
		i += matchLen(cur[i:], prev[i:])
		skip := i - runStart
		litStart := i
		for i < n {
			if cur[i] != prev[i] {
				i++
				continue
			}
			// An unchanged gap: absorb it into the literal when breaking
			// would cost more op bytes than it saves.
			g := i
			for g < n && g < i+deltaMinSkip && cur[g] == prev[g] {
				g++
			}
			if g == n || g-i >= deltaMinSkip {
				break
			}
			i = g + 1 // the byte at g differs; keep extending the literal
		}
		lit := i - litStart
		need := binary.PutUvarint(varint[:], uint64(skip))
		dst = append(dst, varint[:need]...)
		need = binary.PutUvarint(varint[:], uint64(lit))
		dst = append(dst, varint[:need]...)
		for j := litStart; j < i; j++ {
			dst = append(dst, cur[j]^prev[j])
		}
		if len(dst) >= budget {
			return dst, false
		}
	}
	return dst, true
}

// matchLen returns the length of the longest common prefix of a and b
// (equal lengths assumed). Unchanged runs dominate a slow-pan frame, so
// this is the encoder's hot loop: compare word-at-a-time and locate the
// first differing byte inside the mismatching word by its trailing zero
// bits (XOR is little-endian, so low bits are earlier bytes).
func matchLen(a, b []byte) int {
	i := 0
	for len(a) >= 8 && len(b) >= 8 {
		if x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
		a, b = a[8:], b[8:]
		i += 8
	}
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
		i++
	}
	return i
}

// DecodeSensorFrameDeltaInto parses an encoded delta frame into f,
// reconstructing pixels against prev (the previous frame decoded on the
// same stream) and reusing f's Pixels and Lidar capacity. f and prev must
// not be the same frame. On error f's contents are unspecified.
func DecodeSensorFrameDeltaInto(buf []byte, prev, f *SensorFrame) error {
	if k, err := Kind(buf); err != nil {
		return err
	} else if k != KindSensorFrameDelta {
		return fmt.Errorf("%w: kind %d is not a delta sensor frame", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	f.Frame = r.uint32()
	f.TimeSec = r.float()
	f.ImageW = r.uint16()
	f.ImageH = r.uint16()
	if r.err == nil && (f.ImageW != prev.ImageW || f.ImageH != prev.ImageH) {
		return fmt.Errorf("%w: delta geometry %dx%d against previous %dx%d",
			ErrCodec, f.ImageW, f.ImageH, prev.ImageW, prev.ImageH)
	}
	pixLen := int(f.ImageW) * int(f.ImageH) * 3
	if pixLen > MaxPayload {
		return fmt.Errorf("%w: pixel payload %d exceeds limit", ErrCodec, pixLen)
	}
	if len(prev.Pixels) != pixLen {
		return fmt.Errorf("%w: previous frame has %d pixel bytes, geometry wants %d",
			ErrCodec, len(prev.Pixels), pixLen)
	}
	opsLen := int(r.uint32())
	if opsLen > MaxPayload {
		return fmt.Errorf("%w: patch stream %d exceeds limit", ErrCodec, opsLen)
	}
	if !r.need(opsLen) {
		return fmt.Errorf("%w: delta frame: truncated patch stream", ErrCodec)
	}
	ops := r.buf[r.off : r.off+opsLen]
	r.off += opsLen
	var err error
	if f.Pixels, err = applyPixelPatch(f.Pixels[:0], prev.Pixels, ops); err != nil {
		return fmt.Errorf("%w: delta frame: %v", ErrCodec, err)
	}
	f.Speed = r.float()
	f.GPSX = r.float()
	f.GPSY = r.float()
	f.Lidar = f.Lidar[:0]
	if beams := int(r.uint16()); beams > 0 {
		if beams > 4096 {
			return fmt.Errorf("%w: %d lidar beams exceeds limit", ErrCodec, beams)
		}
		for i := 0; i < beams; i++ {
			f.Lidar = append(f.Lidar, r.float())
		}
	}
	f.Command = r.byte()
	f.Done = r.byte() != 0
	f.Status = r.byte()
	if r.err != nil {
		return fmt.Errorf("%w: delta frame: %v", ErrCodec, r.err)
	}
	return nil
}

// applyPixelPatch reconstructs the current pixels from prev and the op
// stream, appending into dst. The ops must cover prev exactly — partial
// or overlong coverage is stream corruption.
func applyPixelPatch(dst, prev, ops []byte) ([]byte, error) {
	pos := 0
	r := 0
	for r < len(ops) {
		skip, n := binary.Uvarint(ops[r:])
		if n <= 0 {
			return dst, fmt.Errorf("malformed skip varint at patch offset %d", r)
		}
		r += n
		lit, n := binary.Uvarint(ops[r:])
		if n <= 0 {
			return dst, fmt.Errorf("malformed literal varint at patch offset %d", r)
		}
		r += n
		if skip > uint64(len(prev)-pos) || lit > uint64(len(prev)-pos)-skip {
			return dst, fmt.Errorf("patch overruns %d pixel bytes at %d (+%d +%d)",
				len(prev), pos, skip, lit)
		}
		if lit > uint64(len(ops)-r) {
			return dst, fmt.Errorf("literal of %d exceeds remaining patch bytes", lit)
		}
		dst = append(dst, prev[pos:pos+int(skip)]...)
		pos += int(skip)
		for j := 0; j < int(lit); j++ {
			dst = append(dst, prev[pos+j]^ops[r+j])
		}
		pos += int(lit)
		r += int(lit)
	}
	if pos != len(prev) {
		return dst, fmt.Errorf("patch covers %d of %d pixel bytes", pos, len(prev))
	}
	return dst, nil
}

// FrameEncoder encodes one session's outbound frame stream with zero
// steady-state allocations, delta-compressing against the previously
// encoded frame whenever the delta pays for itself. Not safe for
// concurrent use; one per session.
type FrameEncoder struct {
	frames [2]SensorFrame
	cur    int
	have   bool
	buf    []byte
	deltas int
}

// Next returns the scratch frame to fill with the next observation. The
// caller should append into the existing Pixels/Lidar capacity (slices
// come reset to length zero) to stay allocation-free, then call Encode.
func (e *FrameEncoder) Next() *SensorFrame {
	f := &e.frames[e.cur]
	f.Pixels = f.Pixels[:0]
	f.Lidar = f.Lidar[:0]
	return f
}

// Encode envelopes the frame last returned by Next for session and
// returns the encoded message, valid until the next Encode call. With a
// previous frame on record, pixels go as a delta when that is strictly
// smaller; otherwise — first frame, geometry change, or delta not
// profitable — a full keyframe is sent.
func (e *FrameEncoder) Encode(session uint32) []byte {
	cur := &e.frames[e.cur]
	buf := AppendEnvelopeHeader(e.buf[:0], session)
	sent := false
	if e.have {
		if b, ok := AppendSensorFrameDelta(buf, &e.frames[1-e.cur], cur); ok {
			buf, sent = b, true
			e.deltas++
		}
	}
	if !sent {
		buf = AppendSensorFrame(buf, cur)
	}
	if sent {
		telemetry.FramesEncodedDelta.Inc()
	} else {
		telemetry.FramesEncodedKey.Inc()
	}
	telemetry.FramesEncodedBytes.Add(uint64(len(buf)))
	telemetry.FramesRawBytes.Add(uint64(len(cur.Pixels)))
	e.buf = buf
	e.have = true
	e.cur = 1 - e.cur
	return buf
}

// Deltas reports how many frames went out delta-encoded.
func (e *FrameEncoder) Deltas() int { return e.deltas }

// FrameDecoder decodes one session's inbound frame stream — full
// keyframes and deltas alike — with zero steady-state allocations. The
// returned frame is valid until the next Decode call. Not safe for
// concurrent use; one per session.
type FrameDecoder struct {
	frames [2]SensorFrame
	cur    int
	have   bool
	deltas int
}

// Decode parses the next frame message of the stream (KindSensorFrame or
// KindSensorFrameDelta) into a reused scratch frame.
func (d *FrameDecoder) Decode(msg []byte) (*SensorFrame, error) {
	next := 1 - d.cur
	f := &d.frames[next]
	kind, err := Kind(msg)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindSensorFrame:
		if err := DecodeSensorFrameInto(msg, f); err != nil {
			return nil, err
		}
		telemetry.FramesDecodedKey.Inc()
	case KindSensorFrameDelta:
		if !d.have {
			return nil, fmt.Errorf("%w: delta frame with no previous frame on the stream", ErrCodec)
		}
		if err := DecodeSensorFrameDeltaInto(msg, &d.frames[d.cur], f); err != nil {
			return nil, err
		}
		d.deltas++
		telemetry.FramesDecodedDelta.Inc()
	default:
		return nil, fmt.Errorf("%w: kind %d is not a frame message", ErrCodec, kind)
	}
	d.cur = next
	d.have = true
	return f, nil
}

// Deltas reports how many frames arrived delta-encoded.
func (d *FrameDecoder) Deltas() int { return d.deltas }
