package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	msg := []byte("hello world")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
	// And the other direction.
	if err := b.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil || string(got) != "reply" {
		t.Errorf("reply = %q, %v", got, err)
	}
}

func TestPipeCopiesOnSend(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("mutate me")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X'
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 'X' {
		t.Error("Send did not copy the buffer")
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	b.Close()
	// The buffered slot may accept one message; eventually Send must fail.
	var err error
	for i := 0; i < 3; i++ {
		err = a.Send([]byte("x"))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Send to closed peer = %v, want ErrClosed", err)
	}
}

func TestPipeDrainsBufferedAfterPeerClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil || string(got) != "last words" {
		t.Errorf("buffered message lost after close: %q, %v", got, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			serverErr = err
			return
		}
		serverErr = conn.Send(append([]byte("echo:"), msg...))
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:ping" {
		t.Errorf("got %q", got)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	big := make([]byte, 300_000) // an encoded camera frame is ~60 KB; stress larger
	for i := range big {
		big[i] = byte(i)
	}

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		_ = conn.Send(msg)
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large message corrupted")
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, _ := l.Accept()
		if conn != nil {
			defer conn.Close()
			_, _ = conn.Recv()
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized Send did not error")
	}
}

func TestDialFailsToNowhere(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port did not error")
	}
}

func TestPipeManyMessagesInOrder(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send([]byte{byte(i), byte(i >> 8)})
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(msg[0])|int(msg[1])<<8 != i {
			t.Fatalf("out of order at %d: %v", i, msg)
		}
	}
}

func TestEmptyFrameRejected(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send(nil); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("pipe Send(nil) = %v, want ErrEmptyFrame", err)
	}

	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, _ := l.Accept()
		if conn != nil {
			defer conn.Close()
			_, _ = conn.Recv()
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(nil); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("tcp Send(nil) = %v, want ErrEmptyFrame", err)
	}
}

// TestTCPRecvRejectsZeroLengthFrame drives a raw zero-length frame header
// at the receiver: it must surface ErrEmptyFrame instead of returning an
// empty message no proto decoder could have produced.
func TestTCPRecvRejectsZeroLengthFrame(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		_, err = conn.Recv()
		errCh <- err
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("Recv of zero-length frame = %v, want ErrEmptyFrame", err)
	}
}

// TestRecycleReuse exercises the pool round trip: a recycled buffer with
// enough capacity is handed back out, and contents never bleed between
// messages.
func TestRecycleReuse(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 64; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 128)
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("iteration %d corrupted: %v", i, got[:4])
		}
		Recycle(got)
	}
}
