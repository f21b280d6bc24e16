// Binary episode records: the encoding of the durable episode log, and the
// only one that is written to disk, read back, resumed from or merged. It
// is a length-prefixed, versioned frame per record — compact and
// reflection-free, so a million-episode sweep spends its time in episodes,
// not in marshaling records. Every log opens with the frame magic (0xAF,
// which no JSON text can start with), so a log in any other encoding is
// refused on read instead of being mistaken for an empty one. JSONL
// (FormatJSONL) is an export form only; `avfi records` writes it.
//
// Frame layout (big-endian):
//
//	magic   uint16  0xAF1B
//	version uint8   BinaryRecordVersion
//	length  uint32  payload bytes that follow
//	payload:
//	  injector          uint16 len + bytes
//	  mission           uint32 (two's-complement int32)
//	  repetition        uint32 (two's-complement int32)
//	  seed              uint64
//	  flags             uint8  (bit0 = success)
//	  distanceKM        float64
//	  durationSec       float64
//	  injectionTimeSec  float64
//	  violations        uint32 count, then per violation:
//	    kind            uint8 len + bytes
//	    timeSec         float64
//	    flags           uint8  (bit0 = accident)
//
// A crash mid-write leaves a prefix of a frame; readers treat any
// incomplete trailing frame as the truncated tail (dropped) and any bytes
// that cannot start a frame, or a complete-but-invalid frame, as
// corruption (an error).
// The version byte is per-frame, so a future layout change can mix
// versions in one log without a file header.

package campaign

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/avfi/avfi/internal/metrics"
)

const (
	binMagic0 = 0xAF
	binMagic1 = 0x1B
	// BinaryRecordVersion is the current binary record frame version;
	// bumped on incompatible payload change.
	BinaryRecordVersion = 1
	// binHeaderLen is magic (2) + version (1) + payload length (4).
	binHeaderLen = 7
	// maxBinaryPayload bounds one record's payload, so a corrupt length
	// prefix is detected instead of honored as an allocation request.
	maxBinaryPayload = 16 << 20
)

// errShortRecord marks a frame that needs more bytes than the buffer
// holds — the signature of a crash-truncated tail, which loaders tolerate.
// Any other decode failure is corruption.
var errShortRecord = errors.New("campaign: short binary record frame")

// notBinaryLog is the error for a log whose first byte cannot start a
// frame — typically a JSONL export handed back to a reader.
func notBinaryLog(first byte) error {
	return fmt.Errorf("not a binary record log (first byte %#02x); JSONL is an export format and is never read back", first)
}

// EncodeBinaryRecord serializes one episode record as a binary frame.
func EncodeBinaryRecord(rec metrics.EpisodeRecord) ([]byte, error) {
	return AppendBinaryRecord(nil, rec)
}

// AppendBinaryRecord appends rec's binary frame to dst and returns the
// extended buffer. It errors on records the format cannot carry (label
// strings beyond the length prefixes, mission/repetition outside int32) —
// none of which the campaign runner produces.
func AppendBinaryRecord(dst []byte, rec metrics.EpisodeRecord) ([]byte, error) {
	if len(rec.Injector) > math.MaxUint16 {
		return dst, fmt.Errorf("campaign: binary record: injector label is %d bytes (max %d)", len(rec.Injector), math.MaxUint16)
	}
	if int64(rec.Mission) != int64(int32(rec.Mission)) || int64(rec.Repetition) != int64(int32(rec.Repetition)) {
		return dst, fmt.Errorf("campaign: binary record: mission=%d repetition=%d outside int32", rec.Mission, rec.Repetition)
	}
	for _, v := range rec.Violations {
		if len(v.Kind) > math.MaxUint8 {
			return dst, fmt.Errorf("campaign: binary record: violation kind is %d bytes (max %d)", len(v.Kind), math.MaxUint8)
		}
	}
	payload := 2 + len(rec.Injector) + 4 + 4 + 8 + 1 + 3*8 + 4
	for _, v := range rec.Violations {
		payload += 1 + len(v.Kind) + 8 + 1
	}
	if payload > maxBinaryPayload {
		return dst, fmt.Errorf("campaign: binary record: %d-byte payload exceeds %d", payload, maxBinaryPayload)
	}
	dst = append(dst, binMagic0, binMagic1, BinaryRecordVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(rec.Injector)))
	dst = append(dst, rec.Injector...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(rec.Mission)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(rec.Repetition)))
	dst = binary.BigEndian.AppendUint64(dst, rec.Seed)
	dst = append(dst, recFlags(rec.Success))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rec.DistanceKM))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rec.DurationSec))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rec.InjectionTimeSec))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Violations)))
	for _, v := range rec.Violations {
		dst = append(dst, byte(len(v.Kind)))
		dst = append(dst, v.Kind...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.TimeSec))
		dst = append(dst, recFlags(v.Accident))
	}
	return dst, nil
}

func recFlags(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeBinaryRecord parses one binary frame from the front of buf,
// returning the record and the frame's total length. It never panics on
// arbitrary input: a buffer holding only a prefix of a frame returns
// errShortRecord (the truncated-tail signature), any other malformation —
// a short buffer included, when its magic or version is already wrong —
// an ordinary error.
func DecodeBinaryRecord(buf []byte) (metrics.EpisodeRecord, int, error) {
	var rec metrics.EpisodeRecord
	if len(buf) > 0 && buf[0] != binMagic0 || len(buf) > 1 && buf[1] != binMagic1 {
		return rec, 0, fmt.Errorf("campaign: binary record: bad magic %#x", buf[:min(len(buf), 2)])
	}
	if len(buf) > 2 && buf[2] != BinaryRecordVersion {
		return rec, 0, fmt.Errorf("campaign: binary record: version %d, want %d", buf[2], BinaryRecordVersion)
	}
	if len(buf) < binHeaderLen {
		return rec, 0, errShortRecord
	}
	payload := int(binary.BigEndian.Uint32(buf[3:]))
	if payload > maxBinaryPayload {
		return rec, 0, fmt.Errorf("campaign: binary record: %d-byte payload exceeds %d", payload, maxBinaryPayload)
	}
	if len(buf) < binHeaderLen+payload {
		return rec, 0, errShortRecord
	}
	r := binReader{buf: buf[binHeaderLen : binHeaderLen+payload]}
	rec.Injector = string(r.bytes(int(r.uint16())))
	rec.Mission = int(int32(r.uint32()))
	rec.Repetition = int(int32(r.uint32()))
	rec.Seed = r.uint64()
	rec.Success = r.flag()
	rec.DistanceKM = r.float()
	rec.DurationSec = r.float()
	rec.InjectionTimeSec = r.float()
	nviol := int(r.uint32())
	// Each violation is at least kind-len + time + flags = 10 bytes: a
	// count that cannot fit the remaining payload is corruption, not an
	// allocation request.
	if nviol > 0 {
		if r.err == nil && nviol > r.remaining()/10 {
			return rec, 0, fmt.Errorf("campaign: binary record: %d violations exceed %d payload bytes", nviol, r.remaining())
		}
		rec.Violations = make([]metrics.ViolationRecord, 0, nviol)
		for i := 0; i < nviol && r.err == nil; i++ {
			var v metrics.ViolationRecord
			v.Kind = string(r.bytes(int(r.byte())))
			v.TimeSec = r.float()
			v.Accident = r.flag()
			rec.Violations = append(rec.Violations, v)
		}
	}
	if r.err != nil {
		return metrics.EpisodeRecord{}, 0, fmt.Errorf("campaign: binary record: %w", r.err)
	}
	if r.remaining() != 0 {
		return metrics.EpisodeRecord{}, 0, fmt.Errorf("campaign: binary record: %d trailing payload bytes", r.remaining())
	}
	return rec, binHeaderLen + payload, nil
}

// binReader is a bounds-checked cursor over one frame's payload. A read
// past the end sets err; the payload length is already validated against
// the buffer, so overruns here mean a corrupt frame, never a short one.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) remaining() int { return len(r.buf) - r.off }

func (r *binReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("payload overrun at offset %d (need %d of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}

func (r *binReader) byte() byte {
	if !r.need(1) {
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// flag reads a strict boolean byte: anything but 0 or 1 is corruption, so
// every accepted frame re-encodes to its exact original bytes (the
// encoding is canonical — merges of identical episode sets stay
// byte-identical).
func (r *binReader) flag() bool {
	b := r.byte()
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("bad flags byte %#02x at offset %d", b, r.off-1)
	}
	return b&1 != 0
}

func (r *binReader) uint16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *binReader) uint32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *binReader) uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *binReader) float() float64 { return math.Float64frombits(r.uint64()) }

func (r *binReader) bytes(n int) []byte {
	if !r.need(n) {
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// CompleteBinaryPrefixLen reads a binary record log and returns the byte
// length of its longest prefix holding only complete frames — what to
// truncate to before appending to a log that may end in a crash-truncated
// frame. An incomplete trailing frame is excluded from the prefix; a log
// that does not open with a frame, or a malformed header, is an error,
// since appending after it would bury the damage mid-file.
func CompleteBinaryPrefixLen(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var good int64
	for {
		header, err := br.Peek(binHeaderLen)
		if err != nil && err != io.EOF {
			return good, err
		}
		if good == 0 && len(header) > 0 && header[0] != binMagic0 {
			return good, notBinaryLog(header[0])
		}
		if _, _, err := DecodeBinaryRecord(header); err != nil && err != errShortRecord {
			return good, err
		}
		if len(header) < binHeaderLen {
			return good, nil // clean end or truncated trailing header
		}
		frame := int64(binHeaderLen) + int64(binary.BigEndian.Uint32(header[3:]))
		if n, err := io.CopyN(io.Discard, br, frame); err != nil {
			if err == io.EOF && n < frame {
				return good, nil // truncated trailing payload
			}
			return good, err
		}
		good += frame
	}
}

// binarySink streams records as binary frames through a buffered writer.
type binarySink struct {
	bw  *bufio.Writer
	buf []byte // frame scratch, reused across records
}

// NewBinarySink returns a RecordSink writing one binary frame per episode
// to w. The caller keeps ownership of w: Close flushes buffering but does
// not close the underlying writer.
func NewBinarySink(w io.Writer) RecordSink {
	return &binarySink{bw: bufio.NewWriter(w)}
}

// Consume implements RecordSink.
func (s *binarySink) Consume(rec metrics.EpisodeRecord) error {
	frame, err := AppendBinaryRecord(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = frame[:0]
	_, err = s.bw.Write(frame)
	return err
}

// Close implements RecordSink.
func (s *binarySink) Close() error { return s.bw.Flush() }
