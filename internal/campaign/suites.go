package campaign

import (
	"fmt"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/fault/imagefault"
	"github.com/avfi/avfi/internal/fault/timingfault"

	// Link the remaining built-in injectors so campaign users can resolve
	// any registered name.
	_ "github.com/avfi/avfi/internal/fault/actuatorfault"
	_ "github.com/avfi/avfi/internal/fault/commfault"
	_ "github.com/avfi/avfi/internal/fault/hallucinate"
	_ "github.com/avfi/avfi/internal/fault/hwfault"
	_ "github.com/avfi/avfi/internal/fault/locfault"
	_ "github.com/avfi/avfi/internal/fault/mlfault"
	_ "github.com/avfi/avfi/internal/fault/sensorfault"
)

// InputFaultSuite returns the paper's Figure 2/3 campaign columns: the
// fault-free baseline plus the five camera input-fault injectors, in the
// figures' x-axis order.
func InputFaultSuite() []InjectorSource {
	return []InjectorSource{
		Registry(fault.NoopName),
		Registry(imagefault.GaussianName),
		Registry(imagefault.SaltPepperName),
		Registry(imagefault.SolidOccName),
		Registry(imagefault.TranspOccName),
		Registry(imagefault.WaterDropName),
	}
}

// DelayName formats the column label for a Figure 4 delay point.
func DelayName(frames int) string { return fmt.Sprintf("delay-%02d", frames) }

// DelaySweep returns the paper's Figure 4 campaign columns: output delay of
// k frames between the agent's decision and its actuation, for each k.
// The paper sweeps {0, 5, 10, 20, 30} at 15 FPS (30 frames = 2 s).
func DelaySweep(frames []int) []InjectorSource {
	out := make([]InjectorSource, 0, len(frames))
	for _, k := range frames {
		k := k
		out = append(out, InjectorSource{
			Name: DelayName(k),
			New:  func() interface{} { return timingfault.NewDelay(k) },
		})
	}
	return out
}

// Fig4Frames is the paper's Figure 4 x-axis.
var Fig4Frames = []int{0, 5, 10, 20, 30}

// TaxonomySuite returns one representative injector per fault class (plus
// the fault-free baseline): the cross-family campaign that the taxonomy
// argument of the paper calls for — a single matrix sweep covering every
// family the repo injects.
func TaxonomySuite() []InjectorSource {
	out := []InjectorSource{Registry(fault.NoopName)}
	for _, c := range fault.Classes() {
		if c == fault.ClassNone {
			continue
		}
		names := fault.NamesByClass(c)
		if len(names) == 0 {
			continue
		}
		out = append(out, Registry(names[0]))
	}
	return out
}

// Windowed wraps an injector source so its fault activates at startFrame
// rather than episode start — the campaign-level localizer choosing *when*
// a fault strikes, which makes the TTV metric meaningful (time from
// injection to first violation). Each episode's instance is resolved into
// its fault.Roles and the window narrowed to start no earlier than
// startFrame, so windowing a windowed source intersects the two. The model
// role is applied at episode start regardless of the window.
func Windowed(src InjectorSource, startFrame int) InjectorSource {
	out := InjectorSource{
		Name:           fmt.Sprintf("%s@%d", src.Name, startFrame),
		InjectionFrame: startFrame,
	}
	newInst, err := factory(src)
	if err != nil {
		out.err = err
		return out
	}
	out.New = func() interface{} {
		roles := fault.RolesOf(newInst())
		if roles.Window.StartFrame < startFrame {
			roles.Window.StartFrame = startFrame
		}
		return roles
	}
	return out
}
