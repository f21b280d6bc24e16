package proto

import (
	"reflect"
	"testing"
)

func TestEpisodeResultRoundTrip(t *testing.T) {
	in := &EpisodeResult{
		Status: 3, Success: true, Frames: 451,
		DistanceM: 812.375, DurationS: 30.25, RouteLengthM: 901.5,
		Violations: []WireViolation{
			{Kind: 1, TimeSec: 4.5, PosX: -12.25, PosY: 88.0625},
			{Kind: 4, TimeSec: 11.75, PosX: 3, PosY: -7},
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
	in := &EpisodeResult{Status: 2, Success: true, Frames: 10, DistanceM: 5}
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
	full := EncodeEpisodeResult(&EpisodeResult{
		Violations: []WireViolation{{Kind: 2, TimeSec: 1}},
	})
	if _, err := DecodeEpisodeResult(full[:len(full)-4]); err == nil {
		t.Error("truncated violation list accepted")
	}
}

func TestEpisodeResultTruncatesOversizedViolationList(t *testing.T) {
	in := &EpisodeResult{Violations: make([]WireViolation, MaxViolations+5)}
	out, err := DecodeEpisodeResult(EncodeEpisodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != MaxViolations {
		t.Errorf("violations = %d, want truncation to %d", len(out.Violations), MaxViolations)
	}
}
