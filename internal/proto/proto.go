// Package proto defines the wire protocol between the AVFI world-simulator
// server and the driving-agent client — the boundary CARLA's TCP protocol
// occupies in the paper's architecture (Figure 1's sensor-data and action
// paths).
//
// Keeping this an explicit message layer matters to AVFI: the paper's
// timing faults act on exactly this link ("delays in flow of data from one
// component of the AV system to another, loss of data, or out-of-order
// delivery of the data packets"), and its hardware faults corrupt message
// payloads in flight. Messages are encoded with a compact length-prefixed
// binary codec (encoding/binary, no reflection) shared by the in-process
// and TCP transports.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the protocol version byte that opens every message; bumped
// on incompatible change. It is the whole version negotiation: Kind
// rejects a message from any other version, so a mismatched peer fails
// its first decode with an error naming both versions.
const Version = 3

// MsgKind discriminates wire messages.
type MsgKind byte

// Message kinds — the one table of the protocol (documented, with
// directions and payloads, in internal/campaign/README.md; a test keeps
// the two in step). Numbers are retired, never reused: 3 was v1's
// episode-end summary, 8 was v2's session-0 batch of opens. Zero is
// detectably invalid.
const (
	KindInvalid MsgKind = 0
	// KindSensorFrame is server -> client: one full frame of sensor data.
	KindSensorFrame MsgKind = 1
	// KindControl is client -> server: one actuation command.
	KindControl MsgKind = 2
	// KindEnvelope wraps an inner message with a session ID; every message
	// on a connection travels inside one.
	KindEnvelope MsgKind = 4
	// KindOpenEpisode is client -> server: one episode's scenario, the
	// first message on the session it opens.
	KindOpenEpisode MsgKind = 5
	// KindSessionError closes one session abnormally. Server -> client: the
	// episode failed to open or was dropped. Client -> server: the client
	// abandoned the session and the server should stop simulating it.
	KindSessionError MsgKind = 6
	// KindEpisodeResult is server -> client: the full episode result, the
	// session's terminal message.
	KindEpisodeResult MsgKind = 7
	// KindSensorFrameDelta is server -> client: one frame of sensor data,
	// pixels delta-encoded against the previous frame on the same session.
	KindSensorFrameDelta MsgKind = 9
	// KindHello is server -> client, the first message on a connection
	// (session 0): the world hash the server simulates.
	KindHello MsgKind = 10
)

// ErrCodec is wrapped by all encode/decode failures.
var ErrCodec = errors.New("proto: codec error")

// MaxPayload bounds a message body (1 MiB); a length prefix beyond this is
// treated as stream corruption rather than an allocation request.
const MaxPayload = 1 << 20

// SensorFrame is one frame of sensor data: the camera image (8-bit
// channels, as CARLA ships them), speedometer, GPS fix, the high-level
// navigation command, and episode bookkeeping.
type SensorFrame struct {
	Frame   uint32
	TimeSec float64
	// Image geometry and packed channel-major pixels.
	ImageW, ImageH uint16
	Pixels         []byte
	Speed          float64
	GPSX, GPSY     float64
	// Lidar carries the planar scanner's ranges (beam 0 = forward,
	// counterclockwise); empty when the episode has no LIDAR.
	Lidar []float64
	// Command is the conditional-IL command (world.TurnKind numeric value).
	Command uint8
	// Done and Status close the episode (Status is sim.Status numeric).
	Done   bool
	Status uint8
}

// Control is one actuation command, normalized like CARLA's VehicleControl.
type Control struct {
	// Frame echoes the sensor frame this control answers.
	Frame    uint32
	Steer    float64
	Throttle float64
	Brake    float64
}

// SensorFrameSize is the exact encoded size of f — the capacity to
// reserve so AppendSensorFrame never grows the buffer.
func SensorFrameSize(f *SensorFrame) int {
	return 1 + 1 + 4 + 8 + 2 + 2 + 4 + len(f.Pixels) + 8 + 8 + 8 + 2 + 8*len(f.Lidar) + 1 + 1 + 1
}

// AppendSensorFrame appends f's encoding (kind tag included) to dst and
// returns the extended buffer, so hot frame loops can reuse a send buffer.
func AppendSensorFrame(dst []byte, f *SensorFrame) []byte {
	buf := append(dst, Version, byte(KindSensorFrame))
	buf = binary.BigEndian.AppendUint32(buf, f.Frame)
	buf = appendFloat(buf, f.TimeSec)
	buf = binary.BigEndian.AppendUint16(buf, f.ImageW)
	buf = binary.BigEndian.AppendUint16(buf, f.ImageH)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Pixels)))
	buf = append(buf, f.Pixels...)
	buf = appendFloat(buf, f.Speed)
	buf = appendFloat(buf, f.GPSX)
	buf = appendFloat(buf, f.GPSY)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Lidar)))
	for _, v := range f.Lidar {
		buf = appendFloat(buf, v)
	}
	buf = append(buf, f.Command, boolByte(f.Done), f.Status)
	return buf
}

// AppendControl appends c's encoding (kind tag included) to dst.
func AppendControl(dst []byte, c *Control) []byte {
	buf := append(dst, Version, byte(KindControl))
	buf = binary.BigEndian.AppendUint32(buf, c.Frame)
	buf = appendFloat(buf, c.Steer)
	buf = appendFloat(buf, c.Throttle)
	buf = appendFloat(buf, c.Brake)
	return buf
}

// Kind peeks the message kind of an encoded buffer.
func Kind(buf []byte) (MsgKind, error) {
	if len(buf) < 2 {
		return KindInvalid, fmt.Errorf("%w: message too short (%d bytes)", ErrCodec, len(buf))
	}
	if buf[0] != Version {
		return KindInvalid, fmt.Errorf("%w: version %d, want %d", ErrCodec, buf[0], Version)
	}
	k := MsgKind(buf[1])
	switch k {
	case KindSensorFrame, KindControl,
		KindEnvelope, KindOpenEpisode, KindSessionError, KindEpisodeResult,
		KindSensorFrameDelta, KindHello:
		return k, nil
	}
	return KindInvalid, fmt.Errorf("%w: unknown kind %d", ErrCodec, buf[1])
}

// DecodeSensorFrameInto parses an encoded sensor frame into f, reusing
// f's Pixels and Lidar slice capacity so hot frame loops can recycle a
// scratch frame. On error f's contents are unspecified.
func DecodeSensorFrameInto(buf []byte, f *SensorFrame) error {
	if k, err := Kind(buf); err != nil {
		return err
	} else if k != KindSensorFrame {
		return fmt.Errorf("%w: kind %d is not a sensor frame", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	f.Frame = r.uint32()
	f.TimeSec = r.float()
	f.ImageW = r.uint16()
	f.ImageH = r.uint16()
	pixLen := int(r.uint32())
	if pixLen > MaxPayload {
		return fmt.Errorf("%w: pixel payload %d exceeds limit", ErrCodec, pixLen)
	}
	f.Pixels = r.appendBytes(f.Pixels[:0], pixLen)
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
		return fmt.Errorf("%w: sensor frame: %v", ErrCodec, r.err)
	}
	if int(f.ImageW)*int(f.ImageH)*3 != len(f.Pixels) {
		return fmt.Errorf("%w: %dx%d image with %d pixel bytes", ErrCodec, f.ImageW, f.ImageH, len(f.Pixels))
	}
	return nil
}

// DecodeControl parses an encoded control command.
func DecodeControl(buf []byte) (*Control, error) {
	if k, err := Kind(buf); err != nil {
		return nil, err
	} else if k != KindControl {
		return nil, fmt.Errorf("%w: kind %d is not a control", ErrCodec, k)
	}
	r := reader{buf: buf, off: 2}
	var c Control
	c.Frame = r.uint32()
	c.Steer = r.float()
	c.Throttle = r.float()
	c.Brake = r.float()
	if r.err != nil {
		return nil, fmt.Errorf("%w: control: %v", ErrCodec, r.err)
	}
	return &c, nil
}

// reader is a bounds-checked cursor over an encoded message.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("truncated at offset %d (need %d of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}

func (r *reader) byte() byte {
	if !r.need(1) {
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uint16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) uint32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) float() float64 {
	if !r.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) appendBytes(dst []byte, n int) []byte {
	if n < 0 {
		r.err = fmt.Errorf("negative length %d", n)
		return dst
	}
	if !r.need(n) {
		return dst
	}
	dst = append(dst, r.buf[r.off:r.off+n]...)
	r.off += n
	return dst
}

func (r *reader) bytes(n int) []byte {
	if n < 0 {
		r.err = fmt.Errorf("negative length %d", n)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return out
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendUint16(buf []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(buf, v)
}

func appendUint32(buf []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(buf, v)
}

func appendUint64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, v)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
