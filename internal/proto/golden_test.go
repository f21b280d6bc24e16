package proto

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// Golden wire bytes of the per-episode messages: three enveloped opens
// and one episode result, every field set, with -0, NaN and ±Inf floats
// among them (the values are in golden_values_test.go). The hex is the
// protocol: a codec change that moves one byte fails here, and decoding
// the hex must give the values back bit for bit.
var goldenOpenHex = []string{
	"03040000000103050000000300000011000000000000000701000c000440454000000000004019000000000000",
	"03040000002a030500009c4000000000ffffffffffffffff03ffff00017ff00000000000008000000000000000",
	"0304fffffffe030500000001000000020123456789abcdef0200000000fff8000000000000fff0000000000000",
}

const goldenResultHex = "03070301000001c3800000000000000040403a00000000007ff8000000000001" +
	"000301401200000000000080000000000000007ff000000000000005bff80000" +
	"00000000405620000000000040a0000000000000027ff0000000000000403300" +
	"0000000000fff0000000000000"

func TestGoldenOpenEpisodeBytes(t *testing.T) {
	for i, want := range goldenOpens() {
		if got := hex.EncodeToString(EncodeEnvelope(want.SID, EncodeOpenEpisode(&want.Config))); got != goldenOpenHex[i] {
			t.Fatalf("open %d encoded:\n got  %s\n want %s", i, got, goldenOpenHex[i])
		}
		sid, inner, err := DecodeEnvelope(mustHex(t, goldenOpenHex[i]))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := DecodeOpenEpisode(inner)
		if err != nil {
			t.Fatal(err)
		}
		if got := (goldenOpen{SID: sid, Config: *cfg}); !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("open %d decoded:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

func TestGoldenEpisodeResultBytes(t *testing.T) {
	want := goldenResult()
	if got := hex.EncodeToString(EncodeEpisodeResult(want)); got != goldenResultHex {
		t.Fatalf("encoded result:\n got  %s\n want %s", got, goldenResultHex)
	}
	got, err := DecodeEpisodeResult(mustHex(t, goldenResultHex))
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("decoded result differs:\n got  %+v\n want %+v", got, want)
	}
}

// FuzzDecodeEpisodeResult: decoding never panics, and every buffer the
// decoder accepts re-encodes to exactly the same bytes — no two encodings
// share one result.
func FuzzDecodeEpisodeResult(f *testing.F) {
	golden, err := hex.DecodeString(goldenResultHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(append(append([]byte(nil), golden...), 0))
	f.Add(golden[:2+1+1+4+3*8+2])
	f.Fuzz(func(t *testing.T, buf []byte) {
		res, err := DecodeEpisodeResult(buf)
		if err != nil {
			return
		}
		if again := EncodeEpisodeResult(res); !bytes.Equal(again, buf) {
			t.Fatalf("accepted %x, re-encodes to %x", buf, again)
		}
	})
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits (so
// NaN equals the same NaN and -0 differs from +0), pointers followed, and
// a nil slice equal to an empty one.
func bitsEqual(a, b reflect.Value) bool {
	for a.Kind() == reflect.Pointer && !a.IsNil() {
		a = a.Elem()
	}
	for b.Kind() == reflect.Pointer && !b.IsNil() {
		b = b.Elem()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
