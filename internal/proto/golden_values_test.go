package proto

import (
	"math"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/world"
)

// goldenOpen is one enveloped open golden_test.go pins: the session it
// opens and its scenario.
type goldenOpen struct {
	SID    uint32
	Config sim.EpisodeConfig
}

// goldenOpens are the opens golden_test.go pins: every field non-zero
// somewhere, the seed and NPC count at their wire widths' maxima.
func goldenOpens() []goldenOpen {
	return []goldenOpen{
		{SID: 1, Config: sim.EpisodeConfig{
			From: 3, To: 17, Seed: 7, Weather: world.WeatherClear, NumNPCs: 12, NumPedestrians: 4,
			TimeoutSec: 42.5, GoalRadius: 6.25,
		}},
		{SID: 42, Config: sim.EpisodeConfig{
			From: 40000, To: 0, Seed: math.MaxUint64, Weather: world.WeatherFog,
			NumNPCs: math.MaxUint16, NumPedestrians: 1,
			TimeoutSec: math.Inf(1), GoalRadius: math.Copysign(0, -1),
		}},
		{SID: 0xfffffffe, Config: sim.EpisodeConfig{
			From: 1, To: 2, Seed: 0x0123456789abcdef, Weather: world.WeatherRain,
			TimeoutSec: math.Float64frombits(0xfff8000000000000), GoalRadius: math.Inf(-1),
		}},
	}
}

// goldenResult is the episode result golden_test.go pins.
func goldenResult() *sim.Result {
	return &sim.Result{
		Status: sim.StatusTimeout, Success: true, Frames: 451,
		DistanceM: math.Copysign(0, -1), DurationS: 32.453125, RouteLengthM: math.NaN(),
		Violations: []sim.Violation{
			{Kind: sim.ViolationLane, TimeSec: 4.5, Pos: geom.Vec{X: math.Copysign(0, -1), Y: math.Inf(1)}},
			{Kind: sim.ViolationCollisionStatic, TimeSec: -1.5, Pos: geom.Vec{X: 88.5, Y: 2048}},
			{Kind: sim.ViolationCurb, TimeSec: math.Inf(1), Pos: geom.Vec{X: 19, Y: math.Inf(-1)}},
		},
	}
}
