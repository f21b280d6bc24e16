// Frame-path benchmarks: the encode -> envelope -> transport -> decode
// round trip that dominates an episode's wall clock. External test
// package so the codec benchmarks can drive a real transport.Conn.
package proto_test

import (
	"testing"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/telemetry"
	"github.com/avfi/avfi/internal/transport"
)

// benchFrame builds a camera-scale frame (w x h RGB plus lidar) with a
// structured image — flat regions with occasional edges, the shape real
// renders have and delta runs exploit.
func benchFrame(w, h int) *proto.SensorFrame {
	pix := make([]byte, w*h*3)
	for i := range pix {
		pix[i] = byte((i / 64) * 13)
	}
	return &proto.SensorFrame{
		Frame:  1,
		ImageW: uint16(w), ImageH: uint16(h),
		Pixels: pix,
		Speed:  8.5, GPSX: 120, GPSY: -45,
		Lidar:   []float64{9, 9, 9, 7.5, 6, 9, 9, 9},
		Command: 1,
	}
}

// churnPixels advances the frame one step: a sliding band of pixels
// changes (about 1%), the slow-pan workload between consecutive frames.
func churnPixels(pix []byte, step int) {
	n := len(pix) / 100
	off := (step * n) % len(pix)
	for i := 0; i < n; i++ {
		pix[(off+i)%len(pix)] += byte(step)
	}
}

// fillFrame copies src into a codec scratch frame, reusing its capacity.
func fillFrame(dst, src *proto.SensorFrame) {
	dst.Frame = src.Frame
	dst.TimeSec = src.TimeSec
	dst.ImageW, dst.ImageH = src.ImageW, src.ImageH
	dst.Pixels = append(dst.Pixels[:0], src.Pixels...)
	dst.Speed, dst.GPSX, dst.GPSY = src.Speed, src.GPSX, src.GPSY
	dst.Lidar = append(dst.Lidar[:0], src.Lidar...)
	dst.Command, dst.Done, dst.Status = src.Command, src.Done, src.Status
}

// frameServer answers each inbound message with the next frame of a
// churning stream until the connection dies.
func frameServer(l *transport.Listener) {
	conn, err := l.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	const sid = 1
	src := benchFrame(160, 120)
	var enc proto.FrameEncoder
	step := 0
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		transport.Recycle(req)
		fillFrame(enc.Next(), src)
		if err := conn.Send(enc.Encode(sid)); err != nil {
			return
		}
		step++
		churnPixels(src.Pixels, step)
		src.Frame++
	}
}

// BenchmarkFrameRoundTrip measures sensor-frame throughput over loopback
// TCP — encode, envelope, send, receive, decode, control reply — on the
// delta-encoded stream every session runs.
func BenchmarkFrameRoundTrip(b *testing.B) {
	b.Run("delta", func(b *testing.B) {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go frameServer(l)
		conn, err := transport.Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()

		ctl := proto.EncodeEnvelope(1, proto.AppendControl(nil, &proto.Control{Frame: 1}))
		var dec proto.FrameDecoder
		wireBytes := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := conn.Send(ctl); err != nil {
				b.Fatal(err)
			}
			msg, err := conn.Recv()
			if err != nil {
				b.Fatal(err)
			}
			wireBytes += len(msg)
			_, inner, err := proto.DecodeEnvelope(msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(inner); err != nil {
				b.Fatal(err)
			}
			transport.Recycle(msg)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-B/frame")
	})
}

// BenchmarkSensorFrameDelta isolates the delta codec itself: patch
// encoding against the previous frame, and reconstruction.
func BenchmarkSensorFrameDelta(b *testing.B) {
	prev := benchFrame(160, 120)
	cur := benchFrame(160, 120)
	churnPixels(cur.Pixels, 1)
	buf, ok := proto.AppendSensorFrameDelta(nil, prev, cur)
	if !ok {
		b.Fatal("no delta for a 1% churned frame")
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(cur.Pixels)))
		for i := 0; i < b.N; i++ {
			if _, ok := proto.AppendSensorFrameDelta(buf[:0], prev, cur); !ok {
				b.Fatal("delta fell back")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(cur.Pixels)))
		var f proto.SensorFrame
		for i := 0; i < b.N; i++ {
			if err := proto.DecodeSensorFrameDeltaInto(buf, prev, &f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFrameRoundTripZeroAllocs pins the full transport round trip —
// pooled encode, vectored send, pooled receive, stream decode, recycled
// buffers — at (near) zero steady-state allocations per frame, over real
// TCP. Strictly zero is asserted for the codec alone in
// TestFrameCodecZeroAllocs; here anything below one alloc per frame on
// average proves the pools are cycling. Telemetry collection is enabled
// for the run: the hot-path instruments (transport byte/message counters,
// frame codec counters, writev batch histogram) must observe without
// allocating, or a -status-addr endpoint would cost the frame path its
// zero-allocation property.
func TestFrameRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; pooled zero-alloc cannot hold")
	}
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go frameServer(l)
	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctl := proto.EncodeEnvelope(1, proto.AppendControl(nil, &proto.Control{Frame: 1}))
	var dec proto.FrameDecoder
	step := func() {
		if err := conn.Send(ctl); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		_, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(inner); err != nil {
			t.Fatal(err)
		}
		transport.Recycle(msg)
	}
	// Warm the codec scratch on both ends and the transport buffer pool
	// (the first frames are keyframes and size every reusable buffer).
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs >= 1 {
		t.Errorf("frame round trip allocates %.2f times per frame, want < 1", allocs)
	}
}

// BenchmarkTelemetryOverhead measures what metric collection costs the
// frame hot path: the same delta-stream round trip as
// BenchmarkFrameRoundTrip/delta, with the process-wide telemetry gate off
// and on. The enabled path adds a handful of atomic increments and one
// histogram bucket search per message; the bench-pool CI gate fails if
// enabling collection ever costs the frame path more than its regression
// budget.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "disabled"
		if on {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			prev := telemetry.Enabled()
			telemetry.SetEnabled(on)
			defer telemetry.SetEnabled(prev)
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go frameServer(l)
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			ctl := proto.EncodeEnvelope(1, proto.AppendControl(nil, &proto.Control{Frame: 1}))
			var dec proto.FrameDecoder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(ctl); err != nil {
					b.Fatal(err)
				}
				msg, err := conn.Recv()
				if err != nil {
					b.Fatal(err)
				}
				_, inner, err := proto.DecodeEnvelope(msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.Decode(inner); err != nil {
					b.Fatal(err)
				}
				transport.Recycle(msg)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}
