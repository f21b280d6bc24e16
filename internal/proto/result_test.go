package proto

import (
	"reflect"
	"testing"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/sim"
)

func TestEpisodeResultRoundTrip(t *testing.T) {
	in := &sim.Result{
		Status: sim.StatusTimeout, Success: true, Frames: 451,
		DistanceM: 812.375, DurationS: 30.25, RouteLengthM: 901.5,
		Violations: []sim.Violation{
			{Kind: sim.ViolationLane, TimeSec: 4.5, Pos: geom.Vec{X: -12.25, Y: 88.0625}},
			{Kind: sim.ViolationCollisionPedestrian, TimeSec: 11.75, Pos: geom.Vec{X: 3, Y: -7}},
		},
	}
	buf := EncodeEpisodeResult(in)
	if k, err := Kind(buf); err != nil || k != KindEpisodeResult {
		t.Fatalf("Kind = %v, %v", k, err)
	}
	out, err := DecodeEpisodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mangled:\n in  %+v\n out %+v", in, out)
	}
}

func TestEpisodeResultNoViolations(t *testing.T) {
	in := &sim.Result{Status: sim.StatusSuccess, Success: true, Frames: 10, DistanceM: 5}
	out, err := DecodeEpisodeResult(EncodeEpisodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mangled: %+v vs %+v", in, out)
	}
}

func TestEpisodeResultRejectsGarbage(t *testing.T) {
	if _, err := DecodeEpisodeResult(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := DecodeEpisodeResult(AppendControl(nil, &Control{Frame: 1})); err == nil {
		t.Error("control accepted as episode result")
	}
	// Truncate mid-violation list.
	full := EncodeEpisodeResult(&sim.Result{
		Violations: []sim.Violation{{Kind: sim.ViolationCurb, TimeSec: 1}},
	})
	if _, err := DecodeEpisodeResult(full[:len(full)-4]); err == nil {
		t.Error("truncated violation list accepted")
	}
	if _, err := DecodeEpisodeResult(append(full, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), full...)
	bad[3] = 2 // the success byte
	if _, err := DecodeEpisodeResult(bad); err == nil {
		t.Error("success byte 2 accepted")
	}
}

func TestEpisodeResultTruncatesOversizedViolationList(t *testing.T) {
	in := &sim.Result{Violations: make([]sim.Violation, MaxViolations+5)}
	out, err := DecodeEpisodeResult(EncodeEpisodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != MaxViolations {
		t.Errorf("violations = %d, want truncation to %d", len(out.Violations), MaxViolations)
	}
}
