package simserver

import (
	"strings"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/transport"
)

// idleWorker returns a listening worker whose factory is never exercised.
func idleWorker(t *testing.T) *Worker {
	t.Helper()
	w := NewWorker(func(sim.EpisodeConfig) (*sim.Episode, error) {
		t.Error("factory called by a test that opens no episode")
		return nil, nil
	}, 0)
	if _, err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkerServeBeforeListen(t *testing.T) {
	w := NewWorker(nil, 0)
	if err := w.Serve(); err == nil || !strings.Contains(err.Error(), "Serve before Listen") {
		t.Errorf("Serve before Listen = %v, want an error saying so", err)
	}
}

// TestWorkerCloseDrainsToNil: Close is the clean shutdown — Serve returns
// nil, even with a connection mid-flight (its teardown is part of Close).
func TestWorkerCloseDrainsToNil(t *testing.T) {
	w := idleWorker(t)
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	conn, err := transport.Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The connection must be accepted before Close for ConnsServed to see
	// it; poll rather than race the accept loop.
	for deadline := time.Now().Add(10 * time.Second); w.ConnsServed() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never accepted the dialed connection")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Close = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if w.ConnsServed() != 1 || w.ActiveConns() != 0 {
		t.Errorf("served=%d active=%d after shutdown, want 1 and 0", w.ConnsServed(), w.ActiveConns())
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want idempotent nil", err)
	}
}

// TestWorkerExternalListenerCloseIsAnError: the listener dying without
// Close is a failure Serve must report promptly — not retry forever, and
// not wedge behind live connections.
func TestWorkerExternalListenerCloseIsAnError(t *testing.T) {
	w := idleWorker(t)
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	// A live connection must not delay the error return.
	conn, err := transport.Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w.mu.Lock()
	l := w.listener
	w.mu.Unlock()
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after its listener died without Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve wedged behind a live connection after listener death")
	}
}
