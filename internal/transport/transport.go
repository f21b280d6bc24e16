// Package transport carries encoded proto messages between the simulator
// server and the agent client. Two implementations share one framing
// format: an in-process pipe (fast, used by test and campaign loops) and
// real TCP (the paper's CARLA deployment shape). Because both carry the
// same frames, the timing-fault injector behaves identically on either —
// a property the integration tests assert.
//
// Framing: a 4-byte big-endian length prefix, then the message bytes. A
// zero-length frame is invalid on the wire: every proto message starts
// with a two-byte version/kind header, so an empty body is corruption and
// both ends reject it at the transport boundary.
//
// The frame hot path is allocation-conscious: Send on TCP issues a single
// writev (header and body gathered, no copy and no second syscall), and
// Recv fills message bodies from a shared buffer pool that callers can
// return to with Recycle once a message is fully consumed.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/avfi/avfi/internal/telemetry"
)

// MaxFrame bounds one framed message (must cover an encoded camera frame).
const MaxFrame = 4 << 20

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrEmptyFrame is returned for zero-length messages, sent or received:
// no proto message is empty, so an empty frame is a programming error on
// the send side and stream corruption on the receive side.
var ErrEmptyFrame = errors.New("transport: empty frame")

// Conn is a bidirectional, ordered message stream.
type Conn interface {
	// Send writes one message.
	Send(msg []byte) error
	// Recv reads the next message, blocking until one arrives or the
	// connection closes. The returned buffer may come from a shared pool;
	// callers that fully consume a message can hand it back with Recycle.
	Recv() ([]byte, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// --- Buffer pool ---
//
// Message buffers cycle through a two-pool design so that neither Get nor
// Put boxes a slice header into an interface (which would allocate on
// every message): full holds *[]byte containers with a buffer inside,
// empty holds spent containers awaiting a recycled buffer. Pointers are
// interface-boxing-free, so a warmed steady state runs at zero
// allocations per message.
var (
	fullBufs  sync.Pool // *[]byte, non-nil buffer
	emptyBufs sync.Pool // *[]byte, nil buffer
)

// getBuf returns a message buffer of length n, reusing a recycled buffer
// when one with enough capacity is available.
func getBuf(n int) []byte {
	telemetry.TransportBufGets.Inc()
	if p, ok := fullBufs.Get().(*[]byte); ok {
		b := *p
		*p = nil
		emptyBufs.Put(p)
		if cap(b) >= n {
			telemetry.TransportBufHits.Inc()
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Recycle returns a message buffer obtained from Recv (or copied by a
// pipe Send) to the shared pool. Callers must not touch buf afterwards.
// Recycling is optional — unreturned buffers are simply garbage collected
// — and only safe once nothing aliasing the buffer is live, so routing
// layers that hand subslices to other goroutines must leave recycling to
// the final consumer.
func Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	telemetry.TransportBufRecycles.Inc()
	p, ok := emptyBufs.Get().(*[]byte)
	if !ok {
		p = new([]byte)
	}
	*p = buf[:0]
	fullBufs.Put(p)
}

// --- In-process pipe ---

// pipeConn is one end of an in-process duplex channel pair.
type pipeConn struct {
	send chan<- []byte
	recv <-chan []byte

	mu     sync.Mutex
	closed chan struct{}
	once   sync.Once
	peer   *pipeConn
}

var _ Conn = (*pipeConn)(nil)

// Pipe returns two connected in-process ends. Messages are copied on Send
// (into pooled buffers), so callers may reuse their buffers immediately.
func Pipe() (Conn, Conn) {
	// Buffered one deep: the simulator loop is strictly request/response,
	// and a single slot avoids goroutine handoff stalls.
	ab := make(chan []byte, 1)
	ba := make(chan []byte, 1)
	a := &pipeConn{send: ab, recv: ba, closed: make(chan struct{})}
	b := &pipeConn{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn.
func (c *pipeConn) Send(msg []byte) error {
	if len(msg) == 0 {
		return ErrEmptyFrame
	}
	cp := getBuf(len(msg))
	copy(cp, msg)
	select {
	case <-c.closed:
		Recycle(cp)
		return ErrClosed
	case <-c.peer.closed:
		Recycle(cp)
		return ErrClosed
	case c.send <- cp:
		telemetry.TransportMsgsSent.Inc()
		telemetry.TransportBytesSent.Add(uint64(len(msg)))
		return nil
	}
}

// Recv implements Conn.
func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.recv:
		return recvDone(msg), nil
	default:
	}
	select {
	case msg := <-c.recv:
		return recvDone(msg), nil
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peer.closed:
		// Drain anything the peer sent before closing.
		select {
		case msg := <-c.recv:
			return recvDone(msg), nil
		default:
			return nil, ErrClosed
		}
	}
}

// recvDone counts one delivered message on the receive instruments.
func recvDone(msg []byte) []byte {
	telemetry.TransportMsgsRecv.Inc()
	telemetry.TransportBytesRecv.Add(uint64(len(msg)))
	return msg
}

// Close implements Conn.
func (c *pipeConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// --- TCP ---

// tcpConn frames messages over a net.Conn.
type tcpConn struct {
	conn net.Conn

	sendMu sync.Mutex
	// hdr and vecs are Send's gather-write scratch (guarded by sendMu):
	// one header array and a two-element iovec so a single message goes
	// out as one writev with zero per-send allocations.
	hdr  [4]byte
	vecs [2][]byte
	// wbufs is the net.Buffers value WriteTo consumes (it advances the
	// slice header as buffers drain). A local would escape through
	// WriteTo's pointer receiver into the buffersWriter interface and
	// allocate per send; a field rides along with the already-heap conn.
	wbufs net.Buffers

	recvMu sync.Mutex
	// recvHdr is Recv's header scratch (guarded by recvMu); a stack array
	// would escape through the io.Reader interface and cost an allocation
	// per message.
	recvHdr [4]byte
}

var _ Conn = (*tcpConn)(nil)

// NewTCPConn wraps an established net.Conn.
func NewTCPConn(c net.Conn) Conn { return &tcpConn{conn: c} }

// Dial connects to a listening server.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(c), nil
}

// DialTimeout is Dial with a bounded connect: a host that blackholes
// packets (down, firewalled — no RST) fails after timeout instead of the
// OS connect timeout, which can run minutes.
func DialTimeout(addr string, timeout time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(c), nil
}

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener; addr may be ":0" for an ephemeral port.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept blocks for the next connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewTCPConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Send implements Conn: header and body leave in a single gather write
// (writev on Linux), not the two sequential Writes of the naive framing —
// half the syscalls, and no header/body coalescing left to Nagle.
func (t *tcpConn) Send(msg []byte) error {
	if len(msg) == 0 {
		return ErrEmptyFrame
	}
	if len(msg) > MaxFrame {
		return fmt.Errorf("transport: frame %d exceeds max %d", len(msg), MaxFrame)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.hdr[:], uint32(len(msg)))
	t.vecs[0], t.vecs[1] = t.hdr[:], msg
	t.wbufs = net.Buffers(t.vecs[:])
	_, err := t.wbufs.WriteTo(t.conn)
	t.wbufs = nil
	// WriteTo reslices the iovec elements as it consumes them; clear the
	// scratch so no reference to msg outlives the call.
	t.vecs[0], t.vecs[1] = nil, nil
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	telemetry.TransportMsgsSent.Inc()
	telemetry.TransportBytesSent.Add(uint64(4 + len(msg)))
	return nil
}

// Recv implements Conn. Message bodies are read into pooled buffers; the
// caller owns the returned slice and may Recycle it when done.
func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if _, err := io.ReadFull(t.conn, t.recvHdr[:]); err != nil {
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(t.recvHdr[:])
	if n == 0 {
		return nil, fmt.Errorf("transport: read header: %w", ErrEmptyFrame)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame %d exceeds max %d", n, MaxFrame)
	}
	buf := getBuf(int(n))
	if _, err := io.ReadFull(t.conn, buf); err != nil {
		Recycle(buf)
		return nil, fmt.Errorf("transport: read body: %w", err)
	}
	telemetry.TransportMsgsRecv.Inc()
	telemetry.TransportBytesRecv.Add(uint64(4 + n))
	return buf, nil
}

// Close implements Conn.
func (t *tcpConn) Close() error { return t.conn.Close() }
