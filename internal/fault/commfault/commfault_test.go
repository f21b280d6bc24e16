package commfault

import (
	"testing"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/rng"
)

func ctlSeq(n int) []physics.Control {
	seq := make([]physics.Control, n)
	for i := range seq {
		seq[i] = physics.Control{Steer: float64(i) / float64(n), Throttle: 0.5}
	}
	return seq
}

// runTiming drives a control sequence through a fresh injector.
func runTiming(inj fault.TimingInjector, seed uint64, in []physics.Control) []physics.Control {
	inj.Reset()
	r := rng.New(seed)
	out := make([]physics.Control, len(in))
	for i, c := range in {
		out[i] = inj.Transform(c, i, r)
	}
	return out
}

func TestDelayNeverDeliversFresh(t *testing.T) {
	d := NewDelay()
	in := ctlSeq(100)
	out := runTiming(d, 1, in)
	for i, got := range out {
		// With BaseFrames >= 1 the delivered command is always older than
		// the one computed this frame.
		if got == in[i] {
			t.Fatalf("frame %d delivered the fresh command through a 4-frame link", i)
		}
	}
	// Commands do eventually arrive: late in the episode the delivered
	// command is a recent one, not the neutral setpoint.
	if out[99] == (physics.Control{}) {
		t.Error("link never delivered any command")
	}
}

func TestDelaySupersedesStaleCommands(t *testing.T) {
	// The applied sequence number must never go backwards: a late arrival
	// older than the currently applied command is discarded.
	d := NewDelay()
	d.Reset()
	r := rng.New(2)
	lastSeq := -1
	for i := 0; i < 200; i++ {
		// Encode the frame number in the steer channel to recover the seq.
		out := d.Transform(physics.Control{Steer: float64(i)}, i, r)
		if !d.hasCurrent {
			continue
		}
		seq := int(out.Steer)
		if seq < lastSeq {
			t.Fatalf("frame %d applied stale command %d after %d", i, seq, lastSeq)
		}
		lastSeq = seq
	}
	if lastSeq < 0 {
		t.Fatal("no command ever applied")
	}
}

func TestDropHoldsLastSetpointInBursts(t *testing.T) {
	d := NewDrop()
	in := ctlSeq(300)
	out := runTiming(d, 3, in)
	held := 0
	for i := range out {
		// Every output is either this frame's command or a replay of an
		// earlier one (hold) — never fabricated.
		if out[i] == in[i] {
			continue
		}
		found := false
		for j := 0; j < i; j++ {
			if out[i] == in[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("frame %d delivered a fabricated command %+v", i, out[i])
		}
		held++
	}
	if held == 0 {
		t.Error("bursty loss never held a setpoint over 300 frames")
	}
}

func TestReorderBoundedDisplacement(t *testing.T) {
	d := NewReorder()
	in := ctlSeq(200)
	out := runTiming(d, 4, in)
	seen := map[physics.Control]bool{}
	reordered := false
	for i, got := range out {
		if seen[got] {
			continue // hold replay while the buffer fills
		}
		seen[got] = true
		// Find the input index of this command; displacement is bounded by
		// the buffer depth.
		for j, c := range in {
			if c == got {
				if disp := j - i; disp > 0 || disp < -d.Depth {
					t.Fatalf("frame %d delivered command %d: displacement %d beyond depth %d", i, j, disp, d.Depth)
				}
				if j != i {
					reordered = true
				}
				break
			}
		}
	}
	if !reordered {
		t.Error("reorder link never reordered anything over 200 frames")
	}
}

func TestCommInjectorsDeterministic(t *testing.T) {
	in := ctlSeq(150)
	for _, name := range []string{DelayName, DropName, ReorderName} {
		spec, err := fault.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := runTiming(spec.New().(fault.TimingInjector), 7, in)
		b := runTiming(spec.New().(fault.TimingInjector), 7, in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: frame %d differs across identical runs", name, i)
			}
		}
	}
}

func TestCommInjectorsPassThroughOutsideWindow(t *testing.T) {
	in := ctlSeq(50)
	for _, inner := range []fault.TimingInjector{
		&Delay{BaseFrames: 4, JitterFrames: 4},
		&Drop{PGoodBad: 1, PLossBad: 1},
		&Reorder{Depth: 4},
	} {
		inj := &fault.Roles{InjectorName: inner.Name(), Timing: inner, Window: fault.Window{StartFrame: 1000}}
		out := runTiming(inj, 8, in)
		for i := range out {
			if out[i] != in[i] {
				t.Fatalf("%s altered the stream outside its window", inj.Name())
			}
		}
	}
}
