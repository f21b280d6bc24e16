package fault

import (
	"testing"

	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
)

func TestWindowActive(t *testing.T) {
	cases := []struct {
		w     Window
		frame int
		want  bool
	}{
		{Window{}, 0, true},
		{Window{}, 1 << 20, true},
		{Window{StartFrame: 10}, 9, false},
		{Window{StartFrame: 10}, 10, true},
		{Window{StartFrame: 10, EndFrame: 20}, 19, true},
		{Window{StartFrame: 10, EndFrame: 20}, 20, false},
	}
	for _, c := range cases {
		if got := c.w.Active(c.frame); got != c.want {
			t.Errorf("%+v.Active(%d) = %v", c.w, c.frame, got)
		}
	}
}

func TestNoopChangesNothing(t *testing.T) {
	n := Noop{}
	img := render.NewImage(4, 4)
	img.Pix[0] = 0.5
	r := rng.New(1)
	n.InjectImage(img, 0, r)
	if img.Pix[0] != 0.5 {
		t.Error("noop changed image")
	}
	s, x, y := n.InjectMeasurements(1, 2, 3, 0, r)
	if s != 1 || x != 2 || y != 3 {
		t.Error("noop changed measurements")
	}
	ctl := physics.Control{Steer: 0.5}
	if n.InjectControl(ctl, 0, r) != ctl {
		t.Error("noop changed control")
	}
	if n.Transform(ctl, 0, r) != ctl {
		t.Error("noop transformed control")
	}
}

func TestRegistryLookup(t *testing.T) {
	s, err := Lookup(NoopName)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != ClassNone {
		t.Errorf("noop class = %v", s.Class)
	}
	inst := s.New()
	if _, ok := inst.(InputInjector); !ok {
		t.Error("noop instance is not an InputInjector")
	}
	if _, err := Lookup("definitely-not-registered"); err == nil {
		t.Error("unknown lookup did not error")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty", Spec{})
	mustPanic("duplicate", Spec{Name: NoopName, New: func() interface{} { return nil }})
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassNone: "none", ClassData: "data", ClassHardware: "hardware",
		ClassTiming: "timing", ClassML: "ml", ClassInvalid: "invalid",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestNamesSortedAndContainsNoop(t *testing.T) {
	names := Names()
	found := false
	for i, n := range names {
		if n == NoopName {
			found = true
		}
		if i > 0 && names[i-1] > n {
			t.Error("Names not sorted")
		}
	}
	if !found {
		t.Error("noop not registered")
	}
}
