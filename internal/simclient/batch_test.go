package simclient

import (
	"testing"

	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/transport"
)

// queueOpens constructs a client whose send loop has not started yet, with
// n opens already queued — the deterministic way to exercise coalescing
// (no races against the drain).
func queueOpens(conn transport.Conn, n int) (*Client, []*openReq) {
	c := &Client{
		conn:     conn,
		sessions: make(map[uint32]*session),
		openCh:   make(chan *openReq, 256),
		done:     make(chan struct{}),
	}
	reqs := make([]*openReq, n)
	for i := range reqs {
		reqs[i] = &openReq{
			sid:  uint32(i + 1),
			cfg:  sim.EpisodeConfig{Seed: uint64(i + 1), TimeoutSec: 1},
			errc: make(chan error, 1),
		}
		c.openCh <- reqs[i]
	}
	return c, reqs
}

// TestSendLoopCoalescesQueuedOpens: opens queued while the send loop was
// busy go out as one OpenEpisodeBatch on session 0 — group commit, no
// artificial delay — bounded by openBatchLimit, and a lone open is a batch
// of one.
func TestSendLoopCoalescesQueuedOpens(t *testing.T) {
	for _, tc := range []struct {
		queued int
		want   []int // sizes of the batches the queue drains into
	}{
		{1, []int{1}},
		{3, []int{3}},
		{openBatchLimit + 2, []int{openBatchLimit, 2}},
	} {
		clientEnd, serverEnd := transport.Pipe()
		c, reqs := queueOpens(clientEnd, tc.queued)
		go c.sendLoop()

		next := 0
		for _, size := range tc.want {
			msg, err := serverEnd.Recv()
			if err != nil {
				t.Fatal(err)
			}
			sid, inner, err := proto.DecodeEnvelope(msg)
			if err != nil {
				t.Fatal(err)
			}
			if sid != 0 {
				t.Fatalf("batch envelope sid = %d, want 0", sid)
			}
			entries, err := proto.DecodeOpenEpisodeBatch(inner)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != size {
				t.Fatalf("%d queued: batch carried %d opens, want %d", tc.queued, len(entries), size)
			}
			for _, e := range entries {
				if e.SID != reqs[next].sid || e.Config.Seed != reqs[next].cfg.Seed {
					t.Errorf("entry %d = sid %d seed %d, want sid %d seed %d",
						next, e.SID, e.Config.Seed, reqs[next].sid, reqs[next].cfg.Seed)
				}
				next++
			}
		}
		for i, r := range reqs {
			if err := <-r.errc; err != nil {
				t.Errorf("open %d reported %v", i, err)
			}
		}
		close(c.done)
		clientEnd.Close()
	}
}
