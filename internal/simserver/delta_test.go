package simserver

import (
	"testing"

	"github.com/avfi/avfi/internal/simclient"
)

// TestDeltaFramesNegotiated: with nothing to negotiate, the session frame
// streams are delta-encoded from the second frame on — and both ends agree
// on how many frames rode the delta encoding.
func TestDeltaFramesNegotiated(t *testing.T) {
	const n = 3
	w := testWorld(t)
	srv, clientConn, serveDone := startServer(t, w.NewEpisode)
	client := simclient.NewClient(clientConn)

	for i, err := range runEpisodes(t, client, w, n) {
		if err != nil {
			t.Errorf("episode %d: %v", i, err)
		}
	}
	client.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after clean close", err)
	}
	if got := srv.CompletedSessions(); got != n {
		t.Errorf("CompletedSessions = %d, want %d", got, n)
	}
	if srv.DeltaFramesSent() == 0 {
		t.Error("no frames were delta-encoded")
	}
	if got, want := client.DeltaFrames(), srv.DeltaFramesSent(); got != want {
		t.Errorf("client decoded %d delta frames, server sent %d", got, want)
	}
}
