// Micro-benchmarks for the substrate hot paths: rendering, the agent
// network, physics stepping, protocol codec, and the simulation loop.
// These bound the cost model behind the figure benches (an episode is
// render + inference + physics per frame at 15 FPS).
package avfi_test

import (
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/autopilot"
	"github.com/avfi/avfi/internal/fault/imagefault"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/sensors"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

var (
	microOnce  sync.Once
	microWorld *sim.World
)

func microSimWorld(b *testing.B) *sim.World {
	b.Helper()
	microOnce.Do(func() {
		w, err := sim.NewWorld(sim.DefaultWorldConfig())
		if err != nil {
			panic(err)
		}
		microWorld = w
	})
	return microWorld
}

func BenchmarkRenderFrame(b *testing.B) {
	w := microSimWorld(b)
	r := w.Renderer()
	scene := render.Scene{
		CamPose: w.Town().Spawns[0],
		Weather: world.WeatherClear,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Render(scene)
	}
}

func BenchmarkRenderFrameRainWithObstacles(b *testing.B) {
	w := microSimWorld(b)
	r := w.Renderer()
	pose := w.Town().Spawns[0]
	scene := render.Scene{
		CamPose: pose,
		Weather: world.WeatherRain,
		Obstacles: []render.Obstacle{
			{Box: physics.VehicleOBB(physics.VehicleState{Pose: pose.Advance(15)}, physics.DefaultVehicleParams()), Height: 1.5, Kind: render.ObstacleVehicle},
			{Box: physics.VehicleOBB(physics.VehicleState{Pose: pose.Advance(30)}, physics.DefaultVehicleParams()), Height: 1.5, Kind: render.ObstacleVehicle},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene.Frame = i
		_ = r.Render(scene)
	}
}

func BenchmarkAgentForward(b *testing.B) {
	a, err := agent.New(agent.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	img := render.NewImage(64, 48)
	r := rng.New(1)
	for i := range img.Pix {
		img.Pix[i] = r.Float64()
	}
	// One call first: the activation layers size their workspaces on it.
	if _, err := a.Act(img, 5, world.TurnFollow); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Act(img, 5, world.TurnFollow); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentTrainStep(b *testing.B) {
	a, err := agent.New(agent.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.New(3, 48, 64)
	r := rng.New(2)
	for i := range img.Data() {
		img.Data()[i] = r.Float64()
	}
	data := []agent.Sample{{
		Image: img, Speed: 5, Command: world.TurnFollow, Steer: 0.1, TargetSpeed: 6,
	}}
	tc := agent.TrainConfig{Epochs: 1, BatchSize: 1, LR: 1e-3, SteerWeight: 1, SpeedWeight: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Train(data, tc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhysicsStep(b *testing.B) {
	p := physics.DefaultVehicleParams()
	s := physics.VehicleState{Speed: 8}
	ctl := physics.Control{Steer: 0.2, Throttle: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = physics.StepVehicle(s, ctl, p, sim.Dt)
	}
}

func BenchmarkEpisodeStepWithAutopilot(b *testing.B) {
	w := microSimWorld(b)
	from, to, err := w.Town().RandomMission(rng.New(1), 150)
	if err != nil {
		b.Fatal(err)
	}
	e, err := w.NewEpisode(sim.EpisodeConfig{From: from, To: to, Seed: 1, NumNPCs: 3, NumPedestrians: 3})
	if err != nil {
		b.Fatal(err)
	}
	pilot := autopilot.New(e.Route(), e.EgoParams(), autopilot.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Done() {
			b.StopTimer()
			e, err = w.NewEpisode(sim.EpisodeConfig{From: from, To: to, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			pilot = autopilot.New(e.Route(), e.EgoParams(), autopilot.DefaultConfig())
			b.StartTimer()
		}
		obs := e.Observe()
		_ = obs
		e.Step(pilot.Control(e.EgoState(), nil))
	}
}

func BenchmarkCodecSensorFrame(b *testing.B) {
	img := render.NewImage(64, 48)
	frame := &proto.SensorFrame{
		Frame: 1, ImageW: 64, ImageH: 48, Pixels: img.ToBytes(),
		Speed: 5, GPSX: 100, GPSY: 200, Command: 1,
	}
	var buf []byte
	var out proto.SensorFrame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = proto.AppendSensorFrame(buf[:0], frame)
		if err := proto.DecodeSensorFrameInto(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageFaultGaussian(b *testing.B) {
	img := render.NewImage(64, 48)
	g := imagefault.NewGaussian()
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InjectImage(img, i, r)
	}
}

func BenchmarkImageFaultWaterDrop(b *testing.B) {
	img := render.NewImage(64, 48)
	w := imagefault.NewWaterDrop()
	r := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.InjectImage(img, i, r)
	}
}

func BenchmarkRouteProject(b *testing.B) {
	w := microSimWorld(b)
	from, to, err := w.Town().RandomMission(rng.New(7), 200)
	if err != nil {
		b.Fatal(err)
	}
	route, err := w.Town().Net.PlanRoute(from, to)
	if err != nil {
		b.Fatal(err)
	}
	p := route.PointAt(route.Length() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.Project(p)
	}
}

func BenchmarkLidarScan(b *testing.B) {
	w := microSimWorld(b)
	from, to, err := w.Town().RandomMission(rng.New(8), 150)
	if err != nil {
		b.Fatal(err)
	}
	e, err := w.NewEpisode(sim.EpisodeConfig{From: from, To: to, Seed: 2, NumNPCs: 4})
	if err != nil {
		b.Fatal(err)
	}
	l := lidar36()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.LidarScan(l)
	}
}

// lidar36 is the scanner used by the LIDAR bench.
func lidar36() *sensors.Lidar { return sensors.NewLidar(36, 80) }
