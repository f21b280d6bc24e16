package simserver

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/transport"
)

// openRecorder notes the session of every open a client sends, and any
// message it sends on session 0.
type openRecorder struct {
	transport.Conn
	mu     sync.Mutex
	opens  []uint32
	onZero int
}

func (c *openRecorder) Send(msg []byte) error {
	if sid, inner, err := proto.DecodeEnvelope(msg); err == nil {
		kind, _ := proto.Kind(inner)
		c.mu.Lock()
		if kind == proto.KindOpenEpisode {
			c.opens = append(c.opens, sid)
		}
		if sid == 0 {
			c.onZero++
		}
		c.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// barrierDriver holds its episode's first frame until every episode of
// the group has received its own, so all of them are open at once however
// the scheduler runs the goroutines.
type barrierDriver struct {
	simclient.Driver
	group *sync.WaitGroup
	once  sync.Once
}

func (d *barrierDriver) Drive(f *proto.SensorFrame) (physics.Control, error) {
	d.once.Do(func() { d.group.Done(); d.group.Wait() })
	return d.Driver.Drive(f)
}

// weavingDriver steers by frame number, so each episode's result depends
// on every control the server received for it.
func weavingDriver() simclient.Driver {
	return &simclient.AutopilotDriver{Fn: func(f *proto.SensorFrame) physics.Control {
		return physics.Control{Steer: 0.3 * math.Sin(float64(f.Frame)/7), Throttle: 0.5}
	}}
}

// runWithin fails the test when fn has not returned within d; closing the
// connections at cleanup then unblocks what fn still waits on.
func runWithin(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("episodes still running after %s", d)
	}
}

// TestConcurrentOpensRideOwnSessions: episodes run concurrently on one
// client each open on a session of their own (distinct non-zero IDs, and
// the client sends nothing on session 0, the hello's), all of them are
// open at once, and each ends with the result its scenario gives when the
// episodes run one at a time — over the pipe and over TCP.
func TestConcurrentOpensRideOwnSessions(t *testing.T) {
	const n = 4
	w := testWorld(t)
	cfgs := make([]sim.EpisodeConfig, n)
	for i := range cfgs {
		from, to := mission(t, w, uint64(i+1))
		cfgs[i] = sim.EpisodeConfig{From: from, To: to, Seed: uint64(i + 1), TimeoutSec: 1.5}
	}

	for _, tr := range []struct {
		name    string
		connect func(t *testing.T) transport.Conn
	}{
		{"pipe", func(t *testing.T) transport.Conn {
			_, clientConn, serveDone := startServer(t, w.NewEpisode)
			t.Cleanup(func() {
				clientConn.Close()
				if err := <-serveDone; err != nil {
					t.Errorf("Serve: %v", err)
				}
			})
			return clientConn
		}},
		{"tcp", func(t *testing.T) transport.Conn {
			wk := NewWorker(w.NewEpisode, w.Config().Hash())
			addr, err := wk.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- wk.Serve() }()
			conn, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				conn.Close()
				wk.Close()
				if err := <-serveDone; err != nil {
					t.Errorf("worker Serve: %v", err)
				}
			})
			return conn
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			serialClient := simclient.NewClient(tr.connect(t))
			serial := make([]sim.Result, n)
			serialErrs := make([]error, n)
			runWithin(t, 30*time.Second, func() {
				for i, cfg := range cfgs {
					serial[i], serialErrs[i] = serialClient.RunEpisode(cfg, weavingDriver())
				}
			})
			for i, res := range serial {
				if serialErrs[i] != nil || res.Frames == 0 {
					t.Fatalf("serial episode %d: %v, %+v", i, serialErrs[i], res)
				}
			}

			rec := &openRecorder{Conn: tr.connect(t)}
			client := simclient.NewClient(rec)
			var group sync.WaitGroup
			group.Add(n)
			results := make([]sim.Result, n)
			errs := make([]error, n)
			runWithin(t, 30*time.Second, func() {
				var done sync.WaitGroup
				for i, cfg := range cfgs {
					done.Add(1)
					go func() {
						defer done.Done()
						results[i], errs[i] = client.RunEpisode(cfg, &barrierDriver{Driver: weavingDriver(), group: &group})
					}()
				}
				done.Wait()
			})

			for i := range cfgs {
				if errs[i] != nil {
					t.Fatalf("concurrent episode %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(results[i], serial[i]) {
					t.Errorf("episode %d: concurrent result differs from the serial one:\n got  %+v\n want %+v", i, results[i], serial[i])
				}
			}
			seen := map[uint32]bool{}
			for _, sid := range rec.opens {
				if sid == 0 || seen[sid] {
					t.Errorf("open on session %d: want a distinct non-zero session per open", sid)
				}
				seen[sid] = true
			}
			if len(seen) != n || rec.onZero != 0 {
				t.Errorf("%d opens on %d distinct sessions, %d messages on session 0; want %d, %d, 0",
					len(rec.opens), len(seen), rec.onZero, n, n)
			}
			if got := client.MaxConcurrent(); got != n {
				t.Errorf("MaxConcurrent = %d, want all %d episodes open at once", got, n)
			}
			if got := client.CompletedSessions(); got != n {
				t.Errorf("CompletedSessions = %d, want %d", got, n)
			}
		})
	}
}
