package proto

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/avfi/avfi/internal/rng"
)

func sampleFrame() *SensorFrame {
	pix := make([]byte, 4*3*3)
	for i := range pix {
		pix[i] = byte(i * 7)
	}
	return &SensorFrame{
		Frame:   42,
		TimeSec: 2.8,
		ImageW:  4,
		ImageH:  3,
		Pixels:  pix,
		Speed:   7.25,
		GPSX:    120.5,
		GPSY:    -33.25,
		Command: 2,
		Done:    true,
		Status:  3,
	}
}

// decodeFrame decodes a full sensor frame into a fresh SensorFrame.
func decodeFrame(buf []byte) (*SensorFrame, error) {
	var f SensorFrame
	if err := DecodeSensorFrameInto(buf, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

func TestSensorFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	buf := AppendSensorFrame(nil, f)
	got, err := decodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != f.Frame || got.TimeSec != f.TimeSec || got.Speed != f.Speed ||
		got.GPSX != f.GPSX || got.GPSY != f.GPSY || got.Command != f.Command ||
		got.Done != f.Done || got.Status != f.Status ||
		got.ImageW != f.ImageW || got.ImageH != f.ImageH {
		t.Errorf("round trip mismatch: %+v vs %+v", got, f)
	}
	for i := range f.Pixels {
		if got.Pixels[i] != f.Pixels[i] {
			t.Fatal("pixel payload corrupted")
		}
	}
}

func TestControlRoundTrip(t *testing.T) {
	c := &Control{Frame: 9, Steer: -0.5, Throttle: 0.75, Brake: 0.1}
	got, err := DecodeControl(AppendControl(nil, c))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Errorf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestKindDetection(t *testing.T) {
	if k, err := Kind(AppendControl(nil, &Control{})); err != nil || k != KindControl {
		t.Errorf("Kind(control) = %v, %v", k, err)
	}
	if k, err := Kind(AppendSensorFrame(nil, sampleFrame())); err != nil || k != KindSensorFrame {
		t.Errorf("Kind(frame) = %v, %v", k, err)
	}
	if _, err := Kind([]byte{Version}); err == nil {
		t.Error("short buffer did not error")
	}
	if _, err := Kind([]byte{99, 1}); err == nil {
		t.Error("bad version did not error")
	}
	// A v1 peer's message is refused with an error naming both versions,
	// and so is the retired v1 episode-end kind under the current version.
	if _, err := Kind([]byte{1, byte(KindControl)}); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Errorf("v1 message: err = %v, want one naming version 1 and version 2", err)
	}
	if _, err := Kind([]byte{Version, 3}); err == nil {
		t.Error("retired kind 3 accepted")
	}
	if _, err := Kind([]byte{Version, 99}); err == nil {
		t.Error("bad kind did not error")
	}
}

func TestDecodeWrongKind(t *testing.T) {
	if _, err := DecodeControl(AppendSensorFrame(nil, sampleFrame())); !errors.Is(err, ErrCodec) {
		t.Error("decoding frame as control did not error")
	}
	if _, err := decodeFrame(AppendControl(nil, &Control{})); !errors.Is(err, ErrCodec) {
		t.Error("decoding control as frame did not error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendSensorFrame(nil, sampleFrame())
	for _, cut := range []int{2, 5, 10, len(full) - 1} {
		if _, err := decodeFrame(full[:cut]); !errors.Is(err, ErrCodec) {
			t.Errorf("truncation at %d did not error", cut)
		}
	}
	ctl := AppendControl(nil, &Control{Frame: 1})
	if _, err := DecodeControl(ctl[:8]); !errors.Is(err, ErrCodec) {
		t.Error("truncated control did not error")
	}
}

func TestDecodeRejectsHugePixelClaim(t *testing.T) {
	f := sampleFrame()
	buf := AppendSensorFrame(nil, f)
	// The pixel length field sits after version(1)+kind(1)+frame(4)+time(8)+w(2)+h(2).
	off := 1 + 1 + 4 + 8 + 2 + 2
	buf[off] = 0xFF
	buf[off+1] = 0xFF
	buf[off+2] = 0xFF
	buf[off+3] = 0xFF
	if _, err := decodeFrame(buf); !errors.Is(err, ErrCodec) {
		t.Error("huge pixel claim did not error")
	}
}

func TestDecodeRejectsMismatchedImageDims(t *testing.T) {
	f := sampleFrame()
	f.ImageW = 99 // dims no longer match len(Pixels)
	buf := AppendSensorFrame(nil, f)
	if _, err := decodeFrame(buf); !errors.Is(err, ErrCodec) {
		t.Error("mismatched dims did not error")
	}
}

func TestControlRoundTripProperty(t *testing.T) {
	err := quick.Check(func(frame uint32, steer, throttle, brake float64) bool {
		if math.IsNaN(steer) || math.IsNaN(throttle) || math.IsNaN(brake) {
			return true // NaN != NaN; codec preserves bits but equality fails
		}
		c := &Control{Frame: frame, Steer: steer, Throttle: throttle, Brake: brake}
		got, err := DecodeControl(AppendControl(nil, c))
		return err == nil && *got == *c
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestControlNaNPreservesBits(t *testing.T) {
	c := &Control{Steer: math.NaN()}
	got, err := DecodeControl(AppendControl(nil, c))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Steer) != math.Float64bits(c.Steer) {
		t.Error("NaN bit pattern not preserved")
	}
}

func TestSensorFrameRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w := 1 + r.Intn(16)
		h := 1 + r.Intn(16)
		pix := make([]byte, 3*w*h)
		for i := range pix {
			pix[i] = byte(r.Intn(256))
		}
		f := &SensorFrame{
			Frame: uint32(r.Intn(1 << 30)), TimeSec: r.Range(0, 1000),
			ImageW: uint16(w), ImageH: uint16(h), Pixels: pix,
			Speed: r.Range(0, 30), GPSX: r.Range(-500, 500), GPSY: r.Range(-500, 500),
			Command: uint8(r.Intn(5)), Done: r.Bool(0.5), Status: uint8(r.Intn(4)),
		}
		got, err := decodeFrame(AppendSensorFrame(nil, f))
		if err != nil {
			return false
		}
		if got.Frame != f.Frame || got.Speed != f.Speed || len(got.Pixels) != len(f.Pixels) {
			return false
		}
		for i := range f.Pixels {
			if got.Pixels[i] != f.Pixels[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
