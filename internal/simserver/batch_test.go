package simserver

import (
	"testing"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
)

// TestBatchOpenFansOutSessions: one OpenEpisodeBatch envelope opens every
// entry as an independent session — both episodes run to their
// EpisodeResult over the shared connection.
func TestBatchOpenFansOutSessions(t *testing.T) {
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, w.NewEpisode)
	recvHello(t, clientConn)

	const sidA, sidB = 7, 9
	var entries []proto.OpenBatchEntry
	for _, sid := range []uint32{sidA, sidB} {
		from, to := mission(t, w, uint64(sid))
		entries = append(entries, proto.OpenBatchEntry{
			SID: sid,
			Config: sim.EpisodeConfig{
				From: from, To: to,
				Seed: uint64(sid), TimeoutSec: 2.0,
			},
		})
	}
	if err := clientConn.Send(batchMsg(entries...)); err != nil {
		t.Fatal(err)
	}

	decoders := map[uint32]*proto.FrameDecoder{sidA: {}, sidB: {}}
	ended := map[uint32]bool{}
	for len(ended) < 2 {
		msg, err := clientConn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sid, inner, err := proto.DecodeEnvelope(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, ok := decoders[sid]
		if !ok {
			t.Fatalf("message for unopened session %d", sid)
		}
		kind, err := proto.Kind(inner)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case proto.KindSensorFrame, proto.KindSensorFrameDelta:
			frame, err := dec.Decode(inner)
			if err != nil {
				t.Fatal(err)
			}
			if frame.Done {
				continue // the result follows
			}
			if err := clientConn.Send(controlMsg(sid, frame.Frame)); err != nil {
				t.Fatal(err)
			}
		case proto.KindEpisodeResult:
			ended[sid] = true
		case proto.KindSessionError:
			reason, _ := proto.DecodeSessionError(inner)
			t.Fatalf("session %d error: %s", sid, reason)
		default:
			t.Fatalf("session %d: unexpected kind %d", sid, kind)
		}
	}

	clientConn.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
	if got := srv.TotalSessions(); got != 2 {
		t.Errorf("TotalSessions = %d, want 2", got)
	}
	if got := srv.CompletedSessions(); got != 2 {
		t.Errorf("CompletedSessions = %d, want 2", got)
	}
}
