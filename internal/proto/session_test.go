package proto

import (
	"bytes"
	"errors"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/world"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	inner := AppendControl(nil, &Control{Frame: 7, Steer: -0.25, Throttle: 0.5, Brake: 0})
	env := EncodeEnvelope(42, inner)

	if k, err := Kind(env); err != nil || k != KindEnvelope {
		t.Fatalf("Kind(envelope) = %v, %v", k, err)
	}
	sid, got, err := DecodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if sid != 42 {
		t.Errorf("session = %d, want 42", sid)
	}
	ctl, err := DecodeControl(got)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Frame != 7 || ctl.Steer != -0.25 || ctl.Throttle != 0.5 {
		t.Errorf("inner control mangled: %+v", ctl)
	}
}

// kindCases is the test-side copy of the message table: one row per kind
// Kind accepts, with a sample message and its decoder.
// TestKindTableMatchesDocs fails when a kind is missing here or in the
// documented table, so a new message cannot land outside either.
var kindCases = []struct {
	kind   MsgKind
	name   string
	msg    []byte
	decode func([]byte) error
}{
	{KindSensorFrame, "SensorFrame",
		AppendSensorFrame(nil, &SensorFrame{Frame: 1, ImageW: 2, ImageH: 1, Pixels: make([]byte, 6)}),
		func(b []byte) error { return DecodeSensorFrameInto(b, new(SensorFrame)) }},
	{KindControl, "Control",
		AppendControl(nil, &Control{Frame: 1, Steer: 0.5}),
		func(b []byte) error { _, err := DecodeControl(b); return err }},
	{KindEnvelope, "Envelope",
		EncodeEnvelope(3, AppendControl(nil, &Control{Frame: 1})),
		func(b []byte) error { _, _, err := DecodeEnvelope(b); return err }},
	{KindOpenEpisode, "OpenEpisode",
		EncodeOpenEpisode(&sim.EpisodeConfig{From: 3, To: 4, Seed: 99}),
		func(b []byte) error { _, err := DecodeOpenEpisode(b); return err }},
	{KindSessionError, "SessionError",
		EncodeSessionError("boom"),
		func(b []byte) error { _, err := DecodeSessionError(b); return err }},
	{KindEpisodeResult, "EpisodeResult",
		EncodeEpisodeResult(&sim.Result{Status: 2, Frames: 9, DistanceM: 12.5}),
		func(b []byte) error { _, err := DecodeEpisodeResult(b); return err }},
	{KindSensorFrameDelta, "SensorFrameDelta",
		func() []byte {
			prev := &SensorFrame{ImageW: 4, ImageH: 4, Pixels: make([]byte, 48)}
			buf, _ := AppendSensorFrameDelta(nil, prev, prev)
			return buf
		}(),
		func(b []byte) error {
			prev := &SensorFrame{ImageW: 4, ImageH: 4, Pixels: make([]byte, 48)}
			return DecodeSensorFrameDeltaInto(b, prev, new(SensorFrame))
		}},
	{KindHello, "Hello",
		EncodeHello(0xfeedface),
		func(b []byte) error { _, err := DecodeHello(b); return err }},
}

func TestEnvelopeCarriesEveryKind(t *testing.T) {
	for _, c := range kindCases {
		if k, err := Kind(c.msg); err != nil || k != c.kind {
			t.Fatalf("%s: Kind = %v, %v, want %d", c.name, k, err, c.kind)
		}
		sid, got, err := DecodeEnvelope(EncodeEnvelope(7, c.msg))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sid != 7 || !bytes.Equal(got, c.msg) {
			t.Errorf("%s: sid=%d, %d bytes; want 7, %d bytes unchanged", c.name, sid, len(got), len(c.msg))
		}
		if err := c.decode(got); err != nil {
			t.Errorf("%s: decode after envelope: %v", c.name, err)
		}
		if err := c.decode(got[:len(got)-1]); err == nil && c.kind != KindEnvelope {
			t.Errorf("%s: truncated message decoded", c.name)
		}
	}
}

// docRow matches one row of the message table in the campaign README's
// "Wire protocol v3" section: | number | `Name` | ...
var docRow = regexp.MustCompile("(?m)^\\| (\\d+) \\| `(\\w+)` \\|")

// TestKindTableMatchesDocs keeps the protocol to one table: the kinds Kind
// accepts, the rows of kindCases, and the rows of the documented message
// table must be the same set, each listed once under the same name.
func TestKindTableMatchesDocs(t *testing.T) {
	readme, err := os.ReadFile("../campaign/README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[MsgKind]string{}
	for _, m := range docRow.FindAllStringSubmatch(string(readme), -1) {
		n, _ := strconv.Atoi(m[1])
		if prev, dup := documented[MsgKind(n)]; dup {
			t.Errorf("kind %d documented twice (%s, %s)", n, prev, m[2])
		}
		documented[MsgKind(n)] = m[2]
	}
	tested := map[MsgKind]string{}
	for _, c := range kindCases {
		if _, dup := tested[c.kind]; dup {
			t.Errorf("kind %d (%s) has two rows in kindCases", c.kind, c.name)
		}
		tested[c.kind] = c.name
	}
	for k := 0; k < 256; k++ {
		kind := MsgKind(k)
		_, err := Kind([]byte{Version, byte(k)})
		switch accepted := err == nil; {
		case accepted && tested[kind] == "":
			t.Errorf("Kind accepts %d but kindCases has no round-trip case for it", k)
		case accepted && documented[kind] != tested[kind]:
			t.Errorf("kind %d (%s) is documented as %q in internal/campaign/README.md", k, tested[kind], documented[kind])
		case !accepted && tested[kind] != "":
			t.Errorf("kindCases lists %d (%s) but Kind rejects it", k, tested[kind])
		case !accepted && documented[kind] != "":
			t.Errorf("README documents kind %d (%s) but Kind rejects it", k, documented[kind])
		}
	}
}

func TestEnvelopeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeEnvelope(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, _, err := DecodeEnvelope([]byte{Version, byte(KindEnvelope), 0, 0}); err == nil {
		t.Error("truncated session ID accepted")
	}
	// Envelope whose payload is not a valid message.
	env := EncodeEnvelope(1, []byte{Version})
	if _, _, err := DecodeEnvelope(env); err == nil {
		t.Error("truncated payload accepted")
	}
	// Non-envelope message.
	ctl := AppendControl(nil, &Control{Frame: 1})
	if _, _, err := DecodeEnvelope(ctl); err == nil {
		t.Error("bare control accepted as envelope")
	}
}

func TestOpenEpisodeRoundTrip(t *testing.T) {
	in := &sim.EpisodeConfig{
		From: 11, To: 29, Seed: 0xdeadbeefcafe,
		Weather: world.WeatherRain, NumNPCs: 8, NumPedestrians: 4,
		TimeoutSec: 90.5, GoalRadius: 6,
	}
	out, err := DecodeOpenEpisode(EncodeOpenEpisode(in))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeOpenEpisode(AppendControl(nil, &Control{})); err == nil {
		t.Error("control accepted as open-episode")
	}
	if _, err := DecodeOpenEpisode(EncodeOpenEpisode(in)[:10]); err == nil {
		t.Error("truncated open-episode accepted")
	}
	if _, err := DecodeOpenEpisode(append(EncodeOpenEpisode(in), 0)); err == nil {
		t.Error("open-episode with a trailing byte accepted")
	}
}

func TestCheckEpisodeConfig(t *testing.T) {
	ok := sim.EpisodeConfig{From: math.MaxUint32, To: 0, Weather: math.MaxUint8,
		NumNPCs: math.MaxUint16, NumPedestrians: math.MaxUint16}
	if err := CheckEpisodeConfig(ok); err != nil {
		t.Errorf("widest in-range config rejected: %v", err)
	}
	for _, bad := range []sim.EpisodeConfig{
		{From: -1},
		{To: math.MaxUint32 + 1},
		{Weather: math.MaxUint8 + 1},
		{NumNPCs: math.MaxUint16 + 1},
		{NumPedestrians: -1},
	} {
		if err := CheckEpisodeConfig(bad); !errors.Is(err, ErrWireRange) {
			t.Errorf("%+v: err = %v, want ErrWireRange", bad, err)
		}
	}
}

func TestSessionErrorRoundTrip(t *testing.T) {
	out, err := DecodeSessionError(EncodeSessionError("no route"))
	if err != nil {
		t.Fatal(err)
	}
	if out != "no route" {
		t.Errorf("reason = %q", out)
	}

	// Oversized reasons are truncated on encode, not rejected.
	long := strings.Repeat("x", MaxReason+100)
	out, err = DecodeSessionError(EncodeSessionError(long))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != MaxReason {
		t.Errorf("truncated reason len = %d, want %d", len(out), MaxReason)
	}
}
