// Package sim is the AVFI world simulator server core: it owns the town,
// the ego vehicle, NPC traffic and pedestrians, steps everything on the
// paper's fixed 15 FPS clock, detects traffic violations (lane violations,
// driving on the curb, collisions with vehicles/pedestrians/static
// objects), and manages navigation missions from start intersection to
// goal — the role CARLA's server plays in the paper's architecture.
package sim

import (
	"fmt"
	"hash/fnv"

	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/world"
)

// FPS is the simulation frame rate. The paper: "Our simulation environment
// is configured to run at 15 frames per second"; Figure 4's delay axis is
// denominated in these frames.
const FPS = 15

// Dt is the simulation step in seconds.
const Dt = 1.0 / FPS

// WorldConfig parameterizes a World (town + camera + LIDAR).
type WorldConfig struct {
	Town   world.TownConfig
	Camera render.Config
	// LidarBeams is the planar scanner's beam count (0 disables LIDAR).
	LidarBeams int
	// LidarRange is the scanner's maximum range in meters.
	LidarRange float64
	// Seed generates the town deterministically.
	Seed uint64
}

// DefaultWorldConfig is the town/camera setup used by the paper-figure
// experiments.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Town:       world.DefaultTownConfig(),
		Camera:     render.DefaultConfig(),
		LidarBeams: 36,
		LidarRange: 60,
		Seed:       1,
	}
}

// Hash fingerprints the world configuration for the dial-time handshake:
// two processes whose WorldConfigs hash equal generate bit-identical
// worlds, so a campaign pairing with a worker announcing the same hash
// keeps episode results bit-identical. The digest covers every field
// (including nested town/camera parameters) via the Go value syntax, so
// any configuration drift — a new field included — changes the hash.
func (c WorldConfig) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", c)
	return h.Sum64()
}

// EpisodeConfig parameterizes one mission.
type EpisodeConfig struct {
	// From and To are the mission's start and goal intersections.
	From, To world.NodeID
	// Seed drives all episode randomness (NPC behaviour, sensor noise).
	Seed uint64
	// Weather for the whole episode.
	Weather world.Weather
	// NumNPCs and NumPedestrians populate the town.
	NumNPCs        int
	NumPedestrians int
	// TimeoutSec ends the episode unsuccessfully; 0 derives it from the
	// route length (the paper's "fixed amount of time" per mission).
	TimeoutSec float64
	// GoalRadius is how close to the goal counts as arrival, meters.
	GoalRadius float64
}

// MaxActors bounds NumNPCs and NumPedestrians, each, per episode. Every
// actor is stepped, collision-checked and rendered every frame, so a
// worker building whatever count an open names could be made to spend
// seconds per frame and megabytes per episode. 1024 is far above the
// densest scenario any experiment or benchmark here runs (12 NPCs).
const MaxActors = 1024

// Validate checks the episode configuration.
func (c EpisodeConfig) Validate() error {
	if c.From == c.To {
		return fmt.Errorf("sim: mission start == goal (%d)", c.From)
	}
	switch c.Weather {
	case world.WeatherInvalid, world.WeatherClear, world.WeatherRain, world.WeatherFog:
	default:
		return fmt.Errorf("sim: unknown weather %d", int(c.Weather))
	}
	if c.NumNPCs < 0 || c.NumPedestrians < 0 {
		return fmt.Errorf("sim: negative actor count")
	}
	if c.NumNPCs > MaxActors || c.NumPedestrians > MaxActors {
		return fmt.Errorf("sim: %d NPCs and %d pedestrians exceed the bound of %d each",
			c.NumNPCs, c.NumPedestrians, MaxActors)
	}
	if c.TimeoutSec < 0 {
		return fmt.Errorf("sim: negative timeout")
	}
	return nil
}

// withDefaults fills zero values.
func (c EpisodeConfig) withDefaults(routeLen float64) EpisodeConfig {
	if c.Weather == world.WeatherInvalid {
		c.Weather = world.WeatherClear
	}
	if c.GoalRadius == 0 {
		c.GoalRadius = 6
	}
	if c.TimeoutSec == 0 {
		// Generous budget: the nominal 5 m/s pace plus slack for junctions.
		c.TimeoutSec = routeLen/4.0 + 25
	}
	return c
}

// Status is an episode's lifecycle state.
type Status int

// Episode statuses. Enums start at one.
const (
	StatusInvalid Status = iota
	// StatusRunning means the mission is in progress.
	StatusRunning
	// StatusSuccess means the goal was reached within the time budget.
	StatusSuccess
	// StatusTimeout means the time budget expired before the goal.
	StatusTimeout
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusSuccess:
		return "success"
	case StatusTimeout:
		return "timeout"
	default:
		return "invalid"
	}
}
