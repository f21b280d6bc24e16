package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/metrics"
)

// codecRecords covers the binary format's edge cases: empty labels, no
// violations, many violations, negative mission/repetition (foreign
// records carry them), NaN-free float extremes, and flag combinations.
func codecRecords() []metrics.EpisodeRecord {
	return []metrics.EpisodeRecord{
		{},
		{Injector: "noinject", Mission: 0, Repetition: 1, Seed: 7, Success: true, DistanceKM: 0.4},
		{Injector: "gaussian", Mission: 2, Repetition: 0, Seed: 8, DistanceKM: 0.1,
			Violations: []metrics.ViolationRecord{{Kind: "lane", TimeSec: 3}}},
		{Injector: "outputdelay", Mission: -3, Repetition: -1, Seed: 1<<64 - 1,
			DistanceKM: -1.5, DurationSec: 1e300, InjectionTimeSec: 2.25,
			Violations: []metrics.ViolationRecord{
				{Kind: "collision", TimeSec: 1.5, Accident: true},
				{Kind: "", TimeSec: 0},
				{Kind: "offroad", TimeSec: -2},
			}},
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	for _, want := range codecRecords() {
		frame, err := EncodeBinaryRecord(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, n, err := DecodeBinaryRecord(frame)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(frame) {
			t.Errorf("decode consumed %d of %d frame bytes", n, len(frame))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mangled:\n got  %+v\n want %+v", got, want)
		}
	}
}

func TestBinaryRecordRejectsOversizedFields(t *testing.T) {
	huge := metrics.EpisodeRecord{Injector: string(make([]byte, 1<<16))}
	if _, err := EncodeBinaryRecord(huge); err == nil {
		t.Error("64KiB injector label accepted")
	}
	wide := metrics.EpisodeRecord{Mission: 1 << 40}
	if _, err := EncodeBinaryRecord(wide); err == nil {
		t.Error("mission outside int32 accepted")
	}
	badKind := metrics.EpisodeRecord{Violations: []metrics.ViolationRecord{{Kind: string(make([]byte, 300))}}}
	if _, err := EncodeBinaryRecord(badKind); err == nil {
		t.Error("300-byte violation kind accepted")
	}
}

// TestLoadRecordsBinary: records written through the binary sink load
// back unchanged.
func TestLoadRecordsBinary(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	want := codecRecords()
	for _, r := range want {
		if err := sink.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("binary sink round trip mangled:\n got  %+v\n want %+v", got, want)
	}
}

// TestLoadRecordsBinaryTruncatedTail: a crash mid-frame leaves a partial
// final frame; the loader must keep every complete record and drop the
// tail without erroring — at every cut point, including mid-header.
func TestLoadRecordsBinaryTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	var last []byte
	for m := 0; m < 3; m++ {
		if err := sink.Consume(metrics.EpisodeRecord{Injector: "noinject", Mission: m}); err != nil {
			t.Fatal(err)
		}
		if m == 2 {
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			last, _ = EncodeBinaryRecord(metrics.EpisodeRecord{Injector: "noinject", Mission: 2})
		}
	}
	whole := buf.Bytes()
	for cut := len(whole) - len(last) + 1; cut < len(whole); cut++ {
		got, err := LoadRecords(bytes.NewReader(whole[:cut]))
		if err != nil {
			t.Fatalf("cut at %d not tolerated: %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut at %d loaded %d records, want 2", cut, len(got))
		}
	}
}

// TestLoadRecordsBinaryMidFileCorruption: a complete-but-invalid frame is
// corruption, never silently skipped.
func TestLoadRecordsBinaryMidFileCorruption(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	for m := 0; m < 3; m++ {
		if err := sink.Consume(metrics.EpisodeRecord{Injector: "noinject", Mission: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	frame, _ := EncodeBinaryRecord(metrics.EpisodeRecord{Injector: "noinject", Mission: 0})
	data := append([]byte(nil), buf.Bytes()...)
	data[len(frame)+1] ^= 0xFF // second frame's magic
	if _, err := LoadRecords(bytes.NewReader(data)); err == nil {
		t.Error("mid-file corruption accepted")
	}
	// A tail shorter than a header is dropped only if it could begin a
	// frame: stray bytes after the last frame are corruption too.
	junk := append(append([]byte(nil), buf.Bytes()...), '{', '}')
	if _, err := LoadRecords(bytes.NewReader(junk)); err == nil {
		t.Error("non-frame tail accepted as a truncated frame")
	}
}

func TestCompleteBinaryPrefixLen(t *testing.T) {
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	for _, r := range codecRecords() {
		if err := sink.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if got, err := CompleteBinaryPrefixLen(bytes.NewReader(whole)); err != nil || got != int64(len(whole)) {
		t.Errorf("complete log prefix = %d, %v; want %d, nil", got, err, len(whole))
	}
	// Any cut into the final frame clamps back to the frame boundary.
	last, _ := EncodeBinaryRecord(codecRecords()[len(codecRecords())-1])
	boundary := int64(len(whole) - len(last))
	for _, cut := range []int{len(whole) - 1, len(whole) - len(last) + 3, len(whole) - len(last) + 1} {
		got, err := CompleteBinaryPrefixLen(bytes.NewReader(whole[:cut]))
		if err != nil || got != boundary {
			t.Errorf("cut at %d: prefix = %d, %v; want %d, nil", cut, got, err, boundary)
		}
	}
	// A corrupt header is an error, not a clamp point.
	bad := append([]byte(nil), whole...)
	bad[1] ^= 0xFF
	if _, err := CompleteBinaryPrefixLen(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt leading header clamped instead of erroring")
	}
	if got, err := CompleteBinaryPrefixLen(bytes.NewReader(nil)); err != nil || got != 0 {
		t.Errorf("empty log prefix = %d, %v; want 0, nil", got, err)
	}
	// A log that is not binary is an error, however short.
	for _, notBinary := range []string{"{\"Injector\":\"noinject\"}\n", "{}", "x"} {
		if _, err := CompleteBinaryPrefixLen(strings.NewReader(notBinary)); err == nil {
			t.Errorf("non-binary log %q clamped instead of erroring", notBinary)
		}
	}
}

// FuzzDecodeRecord: DecodeBinaryRecord must never panic on arbitrary
// bytes, and every frame it accepts must re-encode to the identical bytes
// (the encoding is canonical).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range codecRecords() {
		frame, err := EncodeBinaryRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic0})
	f.Add([]byte{binMagic0, binMagic1, BinaryRecordVersion, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeBinaryRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		again, err := AppendBinaryRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode diverged:\n got  %x\n want %x", again, data[:n])
		}
	})
}

// BenchmarkRecordCodec compares one record's encode+decode round trip in
// the binary frame format against JSONL — the per-episode cost the binary
// hot path removes from million-episode sweeps.
func BenchmarkRecordCodec(b *testing.B) {
	rec := metrics.EpisodeRecord{
		Injector: "gaussian", Mission: 5, Repetition: 1, Seed: 123456789,
		Success: false, DistanceKM: 0.734, DurationSec: 92.5, InjectionTimeSec: 14.25,
		Violations: []metrics.ViolationRecord{
			{Kind: "lane_violation", TimeSec: 31.5},
			{Kind: "collision_vehicle", TimeSec: 77.25, Accident: true},
		},
	}
	b.Run("binary", func(b *testing.B) {
		var frame []byte
		var err error
		for i := 0; i < b.N; i++ {
			if frame, err = AppendBinaryRecord(frame[:0], rec); err != nil {
				b.Fatal(err)
			}
			if _, _, err = DecodeBinaryRecord(frame); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame)))
	})
	b.Run("jsonl", func(b *testing.B) {
		var line []byte
		var err error
		for i := 0; i < b.N; i++ {
			if line, err = json.Marshal(rec); err != nil {
				b.Fatal(err)
			}
			var out metrics.EpisodeRecord
			if err = json.Unmarshal(line, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(line)))
	})
}
