package proto

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/rng"
)

// nextFrame derives a plausible successor of prev: most pixels unchanged,
// a few touched, scalars advanced — the shape delta encoding exists for.
func nextFrame(prev *SensorFrame, changed int, r *rng.Stream) *SensorFrame {
	cur := &SensorFrame{
		Frame:   prev.Frame + 1,
		TimeSec: prev.TimeSec + 0.1,
		ImageW:  prev.ImageW,
		ImageH:  prev.ImageH,
		Pixels:  append([]byte(nil), prev.Pixels...),
		Speed:   prev.Speed + 0.5,
		GPSX:    prev.GPSX + 1,
		GPSY:    prev.GPSY - 1,
		Lidar:   append([]float64(nil), prev.Lidar...),
		Command: prev.Command,
		Done:    prev.Done,
		Status:  prev.Status,
	}
	for i := 0; i < changed && len(cur.Pixels) > 0; i++ {
		cur.Pixels[r.Intn(len(cur.Pixels))] ^= byte(1 + r.Intn(255))
	}
	return cur
}

// decodeDelta decodes a delta frame against prev into a fresh SensorFrame.
func decodeDelta(buf []byte, prev *SensorFrame) (*SensorFrame, error) {
	var f SensorFrame
	if err := DecodeSensorFrameDeltaInto(buf, prev, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

func frameEqualExact(t *testing.T, got, want *SensorFrame) {
	t.Helper()
	// Byte-exact reconstruction contract: the decoded frame re-encodes
	// identically to the full-frame encoding of the original.
	if !bytes.Equal(AppendSensorFrame(nil, got), AppendSensorFrame(nil, want)) {
		t.Fatalf("reconstruction not byte-exact:\n got %+v\nwant %+v", got, want)
	}
}

func TestSensorFrameDeltaRoundTrip(t *testing.T) {
	r := rng.New(7)
	prev := sampleFrame()
	prev.Lidar = []float64{1.5, 2.5, 9}
	cur := nextFrame(prev, 5, r)

	buf, ok := AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		t.Fatal("delta not emitted for a nearly identical frame")
	}
	if len(buf) >= len(AppendSensorFrame(nil, cur)) {
		t.Errorf("delta (%d bytes) not smaller than full frame (%d bytes)",
			len(buf), len(AppendSensorFrame(nil, cur)))
	}
	if k, err := Kind(buf); err != nil || k != KindSensorFrameDelta {
		t.Fatalf("Kind = %v, %v", k, err)
	}
	got, err := decodeDelta(buf, prev)
	if err != nil {
		t.Fatal(err)
	}
	frameEqualExact(t, got, cur)
}

func TestSensorFrameDeltaIdenticalFrame(t *testing.T) {
	prev := sampleFrame()
	cur := nextFrame(prev, 0, rng.New(1)) // scalars differ, pixels identical
	buf, ok := AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		t.Fatal("delta not emitted for identical pixels")
	}
	got, err := decodeDelta(buf, prev)
	if err != nil {
		t.Fatal(err)
	}
	frameEqualExact(t, got, cur)
}

func TestSensorFrameDeltaFallsBackWhenNotSmaller(t *testing.T) {
	r := rng.New(3)
	prev := sampleFrame()
	cur := nextFrame(prev, 0, r)
	for i := range cur.Pixels {
		cur.Pixels[i] = byte(r.Intn(256)) // every byte churned: delta cannot win
	}
	marker := []byte("prefix")
	buf, ok := AppendSensorFrameDelta(marker, prev, cur)
	if ok {
		t.Fatal("delta emitted though not smaller than a keyframe")
	}
	if !bytes.Equal(buf, marker) {
		t.Error("failed encode did not restore dst")
	}
}

func TestSensorFrameDeltaRejectsGeometryChange(t *testing.T) {
	prev := sampleFrame()
	cur := sampleFrame()
	cur.ImageW, cur.ImageH = 3, 4
	cur.Pixels = cur.Pixels[:3*4*3]
	if _, ok := AppendSensorFrameDelta(nil, prev, cur); ok {
		t.Error("delta emitted across a geometry change")
	}
}

func TestSensorFrameDeltaDecodeRejectsCorruption(t *testing.T) {
	prev := sampleFrame()
	cur := nextFrame(prev, 4, rng.New(9))
	buf, ok := AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		t.Fatal("no delta")
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":      func(b []byte) []byte { return b[:len(b)-20] },
		"patch-overrun":  func(b []byte) []byte { b[2+4+8+2+2+4] = 0xFF; return b }, // huge first skip varint payload
		"short-coverage": func(b []byte) []byte { b[2+4+8+2+2+3]--; return b },      // opsLen shrunk by one
	} {
		b := mutate(append([]byte(nil), buf...))
		if _, err := decodeDelta(b, prev); err == nil {
			t.Errorf("%s: corrupted delta decoded without error", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: error %v does not wrap ErrCodec", name, err)
		}
	}
}

func TestSensorFrameDeltaDecodeRejectsWrongPrevGeometry(t *testing.T) {
	prev := sampleFrame()
	cur := nextFrame(prev, 2, rng.New(4))
	buf, ok := AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		t.Fatal("no delta")
	}
	other := sampleFrame()
	other.ImageW, other.ImageH = 3, 4
	other.Pixels = other.Pixels[:3*4*3]
	if _, err := decodeDelta(buf, other); err == nil {
		t.Error("delta decoded against a previous frame of different geometry")
	}
}

// TestFrameEncoderDecoderStream drives a multi-frame episode through the
// paired stream codecs: keyframe first, deltas after, geometry change
// forcing a keyframe mid-stream, and byte-exact reconstruction throughout.
func TestFrameEncoderDecoderStream(t *testing.T) {
	r := rng.New(11)
	var enc FrameEncoder
	var dec FrameDecoder
	want := sampleFrame()
	want.Lidar = []float64{3, 4, 5}

	const session = 17
	for i := 0; i < 12; i++ {
		if i == 7 {
			// Geometry change mid-stream must fall back to a keyframe.
			want = sampleFrame()
			want.ImageW, want.ImageH = 3, 4
			want.Pixels = want.Pixels[:3*4*3]
		}
		fillSensorFrame(enc.Next(), want)
		msg := enc.Encode(session)
		sid, inner, err := DecodeEnvelope(msg)
		if err != nil {
			t.Fatal(err)
		}
		if sid != session {
			t.Fatalf("frame %d enveloped for session %d", i, sid)
		}
		kind, _ := Kind(inner)
		if (i == 0 || i == 7) && kind != KindSensorFrame {
			t.Errorf("frame %d: kind %d, want keyframe", i, kind)
		}
		got, err := dec.Decode(inner)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		frameEqualExact(t, got, want)
		want = nextFrame(want, 6, r)
	}
	if enc.Deltas() == 0 || enc.Deltas() != dec.Deltas() {
		t.Errorf("delta counts: encoder %d, decoder %d", enc.Deltas(), dec.Deltas())
	}
}

func fillSensorFrame(dst, src *SensorFrame) {
	*dst = SensorFrame{
		Frame: src.Frame, TimeSec: src.TimeSec,
		ImageW: src.ImageW, ImageH: src.ImageH,
		Pixels: append(dst.Pixels[:0], src.Pixels...),
		Speed:  src.Speed, GPSX: src.GPSX, GPSY: src.GPSY,
		Lidar:   append(dst.Lidar[:0], src.Lidar...),
		Command: src.Command, Done: src.Done, Status: src.Status,
	}
}

func TestFrameDecoderRejectsDeltaWithoutKeyframe(t *testing.T) {
	prev := sampleFrame()
	cur := nextFrame(prev, 2, rng.New(2))
	buf, ok := AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		t.Fatal("no delta")
	}
	var dec FrameDecoder
	if _, err := dec.Decode(buf); err == nil {
		t.Error("decoder accepted a delta with no previous frame")
	}
}

// TestFrameCodecZeroAllocs pins the pooled encode/decode path at zero
// steady-state allocations per frame.
func TestFrameCodecZeroAllocs(t *testing.T) {
	r := rng.New(13)
	var enc FrameEncoder
	var dec FrameDecoder
	src := sampleFrame()
	src.ImageW, src.ImageH = 64, 48
	src.Pixels = make([]byte, 64*48*3)
	for i := range src.Pixels {
		src.Pixels[i] = byte(r.Intn(256))
	}
	src.Lidar = []float64{1, 2, 3, 4, 5}

	step := func() {
		fillSensorFrame(enc.Next(), src)
		msg := enc.Encode(3)
		_, inner, err := DecodeEnvelope(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(inner); err != nil {
			t.Fatal(err)
		}
		src.Frame++
		src.Pixels[int(src.Frame)%len(src.Pixels)] ^= 0x5A
	}
	// Warm both scratch frames and the encode buffer.
	for i := 0; i < 4; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("frame encode/decode allocates %.1f times per frame, want 0", allocs)
	}
}

// FuzzSensorFrameDelta fuzzes the delta codec against the byte-exactness
// contract: for arbitrary geometries and pixel contents, whenever a delta
// is emitted it decodes back to a frame whose full encoding is identical
// to the original's.
func FuzzSensorFrameDelta(f *testing.F) {
	f.Add(uint16(4), uint16(3), []byte{1, 2, 3}, []byte{0, 0, 1}, 3.5)
	f.Add(uint16(1), uint16(1), []byte{}, []byte{255}, 0.0)
	f.Add(uint16(8), uint16(2), bytes.Repeat([]byte{9}, 48), []byte{0}, -1.0)
	f.Fuzz(func(t *testing.T, w, h uint16, base, churn []byte, speed float64) {
		w, h = w%64+1, h%64+1
		pixLen := int(w) * int(h) * 3
		prev := &SensorFrame{Frame: 1, ImageW: w, ImageH: h, Pixels: make([]byte, pixLen)}
		for i := range prev.Pixels {
			if len(base) > 0 {
				prev.Pixels[i] = base[i%len(base)]
			}
		}
		cur := &SensorFrame{
			Frame: 2, TimeSec: 0.1, ImageW: w, ImageH: h,
			Pixels: append([]byte(nil), prev.Pixels...),
			Speed:  speed, Lidar: []float64{1.25},
			Command: 1, Status: 2,
		}
		for i, b := range churn {
			cur.Pixels[(i*37)%pixLen] ^= b
		}
		buf, ok := AppendSensorFrameDelta(nil, prev, cur)
		if !ok {
			return // keyframe fallback: nothing to check
		}
		if len(buf) >= SensorFrameSize(cur) {
			t.Fatalf("delta %d bytes, full frame %d", len(buf), SensorFrameSize(cur))
		}
		got, err := decodeDelta(buf, prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(AppendSensorFrame(nil, got), AppendSensorFrame(nil, cur)) {
			t.Fatal("reconstruction not byte-exact")
		}
	})
}

// FuzzDecodeSensorFrameDelta hammers the decoder with arbitrary bytes: it
// must error or succeed, never panic or read out of bounds.
func FuzzDecodeSensorFrameDelta(f *testing.F) {
	prev := sampleFrame()
	cur := nextFrame(prev, 3, rng.New(8))
	if seed, ok := AppendSensorFrameDelta(nil, prev, cur); ok {
		f.Add(seed)
	}
	f.Add([]byte{Version, byte(KindSensorFrameDelta), 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, _ = decodeDelta(buf, prev)
	})
}

// TestFuzzDecodeSensorFrameDeltaSeedsReachTheirPaths keeps the committed
// corpus meaningful across protocol versions: each seed must get past the
// version check to the decoder path it was found on, which a seed in an
// older wire form would not. The two seeds carrying sampleFrame's 4x3
// geometry must reach the patch decoder.
func TestFuzzDecodeSensorFrameDeltaSeedsReachTheirPaths(t *testing.T) {
	prev := sampleFrame()
	for _, tc := range []struct {
		seed    string
		wantErr string
	}{
		{"12dd52afba1986b5", "patch overruns 36 pixel bytes"},
		{"380a227338188dca", "patch overruns 36 pixel bytes"},
		{"2904a565b183273a", "geometry wants 0"},
		{"306d1cebaf26382a", "unknown kind 48"},
	} {
		t.Run(tc.seed, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSensorFrameDelta", tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			quoted, ok2 := strings.CutSuffix(quoted, ")")
			data, err := strconv.Unquote(quoted)
			if !ok || !ok2 || err != nil {
				t.Fatalf("seed is not one []byte corpus entry: %v", err)
			}
			if _, err := decodeDelta([]byte(data), prev); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("decode = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}
