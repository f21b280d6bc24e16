package main

// The layer harness: the one file of the benchmark that reaches below the
// public facade, and only into the leaf packages whose calls it times
// (render, sensors, safety, agent). Everything here drives the layers
// through their public functions; spans are recorded around the calls from
// out here, none inside the program.

import (
	"fmt"
	"runtime"
	"time"

	"github.com/avfi/avfi"
	"github.com/avfi/avfi/internal/agent"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/safety"
	"github.com/avfi/avfi/internal/sensors"
)

// Span names of the direct drive, one per timed layer call.
const (
	spanSlot       = "slot" // one whole episode; its self time is the harness's own
	spanFaultSetup = "fault.setup"
	spanClone      = "agent.clone"
	spanNewEpisode = "sim.new_episode"
	spanObserve    = "sim.observe"
	spanQuantize   = "render.quantize"
	spanInject     = "fault.inject"
	spanAct        = "agent.act"
	spanAEB        = "safety.aeb"
	spanStep       = "sim.step"
)

// shadowEvery is how often the direct drive re-runs the renderer and the
// lidar on their own, outside every span, to split sim.observe.
const shadowEvery = 16

// driveJob is one episode for the direct drive: its column, the episode
// the server side would build, and the seed the campaign gave it.
type driveJob struct {
	id           int
	cell         cell
	mission, rep int
	ep           avfi.EpisodeConfig
}

// shadow accumulates the untimed-path shadow calls.
type shadow struct {
	renderNs, lidarNs int64
	calls             int
}

// applyModelFault mirrors simclient.FaultedDriver.ApplyModelFault. The
// tensor views on the two sides (fault.ParamTensor, *tensor.Tensor) have no
// name in the facade, so both are inferred from the method values.
func applyModelFault[P, T any](
	inject func(visit func(fn func(component string, layer int, name string, t P)), r *avfi.Rand),
	visitParams func(fn func(component string, layer int, name string, t T)),
	r *avfi.Rand,
) {
	inject(func(fn func(string, int, string, P)) {
		visitParams(func(component string, layer int, name string, t T) {
			fn(component, layer, name, any(t).(P))
		})
	}, r)
}

// directDrive replays one episode on the calling goroutine through the
// layers' public calls, in the order campaign.runEpisode,
// simserver.runSession and simclient.FaultedDriver.Drive make them, with a
// span around each. The record it returns must equal the campaign's for
// the same slot; that equality is what licenses summing these spans
// against the campaign's wall time.
func directDrive(tr *tracer, w *avfi.World, base *avfi.Agent, lidar *sensors.Lidar, j driveJob, sh *shadow) (avfi.EpisodeRecord, error) {
	fail := func(err error) (avfi.EpisodeRecord, error) {
		return avfi.EpisodeRecord{}, fmt.Errorf("direct drive %s m%d r%d: %w", j.cell.key, j.mission, j.rep, err)
	}
	root := tr.begin(spanSlot, j.id)
	defer tr.end(root)

	// Client side, before the episode opens (campaign.runEpisode).
	sp := tr.begin(spanFaultSetup, j.id)
	inst, err := avfi.Instantiate(j.cell.src)
	if err != nil {
		return fail(err)
	}
	in, _ := inst.(avfi.InputInjector)
	out, _ := inst.(avfi.OutputInjector)
	timing, _ := inst.(avfi.TimingInjector)
	model, _ := inst.(avfi.ModelInjector)
	tr.end(sp)

	sp = tr.begin(spanClone, j.id)
	a := base.Clone()
	tr.end(sp)

	frand := avfi.NewRand(j.ep.Seed).Split("fault")
	if model != nil {
		sp = tr.begin(spanFaultSetup, j.id)
		applyModelFault(model.InjectModel, a.VisitParams, avfi.NewRand(j.ep.Seed).Split("mlfault"))
		tr.end(sp)
	}
	var aeb *safety.AEB
	if j.cell.aeb {
		aeb = safety.NewAEB(w.EgoParams())
	}

	// Server side: the session builds the episode (simserver.runSession).
	sp = tr.begin(spanNewEpisode, j.id)
	e, err := w.NewEpisode(j.ep)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	a.Reset()
	if timing != nil {
		timing.Reset()
	}

	// shadowCalls times one render and one lidar sweep of the episode's
	// current state on their own, outside every span: the two big parts of
	// sim.observe. Neither touches episode state.
	weather := j.ep.Weather
	if weather == 0 {
		weather = avfi.WeatherClear // what NewEpisode defaults the zero value to
	}
	shadowCalls := func() {
		st := e.EgoState()
		cam := st.Pose
		cam.Pos = st.Pose.Advance(e.EgoParams().Wheelbase).Pos
		scene := render.Scene{CamPose: cam, Weather: weather, Obstacles: e.RenderObstacles(), Frame: e.Frame()}
		t0 := time.Now()
		w.Renderer().Render(scene)
		sh.renderNs += int64(time.Since(t0))
		if lidar != nil {
			t0 = time.Now()
			e.LidarScan(lidar)
			sh.lidarNs += int64(time.Since(t0))
		}
		sh.calls++
	}

	var pix []byte
	var scan, scanScratch []float64
	for {
		sp = tr.begin(spanObserve, j.id)
		obs := e.Observe()
		tr.end(sp)

		// The wire carries 8-bit pixels: the server quantises into its
		// reused frame, the client rebuilds a float image from the bytes.
		sp = tr.begin(spanQuantize, j.id)
		pix = obs.Image.AppendBytes(pix[:0])
		scan = append(scan[:0], obs.Lidar...)
		tr.end(sp)
		if obs.Done {
			break
		}
		if obs.Frame%shadowEvery == 0 {
			shadowCalls()
		}
		sp = tr.begin(spanQuantize, j.id)
		img, err := render.ImageFromBytes(obs.Image.W, obs.Image.H, pix)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}

		// simclient.FaultedDriver.Drive.
		speed, ranges := obs.Speed, scan
		if in != nil {
			sp = tr.begin(spanInject, j.id)
			in.InjectImage(img, obs.Frame, frand)
			speed, _, _ = in.InjectMeasurements(speed, obs.GPS.X, obs.GPS.Y, obs.Frame, frand)
			if li, ok := in.(avfi.LidarInjector); ok {
				scanScratch = append(scanScratch[:0], scan...)
				ranges = scanScratch
				li.InjectLidar(ranges, obs.Frame, frand)
			}
			tr.end(sp)
		}
		sp = tr.begin(spanAct, j.id)
		ctl, err := a.Act(img, speed, obs.Command)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		if out != nil || timing != nil {
			sp = tr.begin(spanInject, j.id)
			if out != nil {
				ctl = out.InjectControl(ctl, obs.Frame, frand)
			}
			if timing != nil {
				ctl = timing.Transform(ctl, obs.Frame, frand)
			}
			tr.end(sp)
		}
		if aeb != nil {
			sp = tr.begin(spanAEB, j.id)
			ctl, _ = aeb.Filter(ctl, ranges, speed)
			tr.end(sp)
		}

		sp = tr.begin(spanStep, j.id)
		e.Step(ctl)
		tr.end(sp)
	}

	// metrics.FromSimResult, spelled through the facade's types.
	res := e.Result()
	rec := avfi.EpisodeRecord{
		Injector:         j.cell.key,
		Mission:          j.mission,
		Repetition:       j.rep,
		Seed:             j.ep.Seed,
		Success:          res.Success,
		DistanceKM:       res.DistanceM / 1000,
		DurationSec:      res.DurationS,
		InjectionTimeSec: float64(j.cell.src.InjectionFrame) * (1.0 / avfi.FPS),
	}
	for _, v := range res.Violations {
		rec.Violations = append(rec.Violations, avfi.ViolationRecord{
			Kind: v.Kind.String(), TimeSec: v.TimeSec, Accident: v.Kind.IsAccident(),
		})
	}
	return rec, nil
}

// worldLidar builds the scanner the world's episodes use, for the shadow
// sweeps; nil when the world has none.
func worldLidar(w *avfi.World) *sensors.Lidar {
	cfg := w.Config()
	if cfg.LidarBeams <= 0 {
		return nil
	}
	return sensors.NewLidar(cfg.LidarBeams, cfg.LidarRange)
}

// allocsOf runs fn n times and returns the mallocs and KiB allocated per
// call, exact as long as no other goroutine allocates meanwhile.
func allocsOf(n int, fn func()) (allocs, kb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// probeCalls is how many repeated calls each allocation probe averages.
const probeCalls = 200

// probes are exact per-call allocation figures of the frame loop's layers.
type probes struct {
	observeAllocs, observeKB float64
	actAllocs, actKB         float64
	quantizeKB               float64
	stepAllocs               float64
}

// probeLayers measures allocations of single layer calls on inputs
// captured a little way into an episode.
func probeLayers(w *avfi.World, base *avfi.Agent, ep avfi.EpisodeConfig) (probes, error) {
	var p probes
	e, err := w.NewEpisode(ep)
	if err != nil {
		return p, fmt.Errorf("allocation probe: %w", err)
	}
	a := base.Clone()
	obs := e.Observe()
	var ctl avfi.Control
	for i := 0; i < 30; i++ {
		if ctl, err = a.Act(obs.Image, obs.Speed, obs.Command); err != nil {
			return p, fmt.Errorf("allocation probe: %w", err)
		}
		e.Step(ctl)
		obs = e.Observe()
	}

	p.observeAllocs, p.observeKB = allocsOf(probeCalls, func() { e.Observe() })
	pix := obs.Image.ToBytes()
	img := obs.Image
	_, p.quantizeKB = allocsOf(probeCalls, func() {
		pix = obs.Image.AppendBytes(pix[:0])
		img, err = render.ImageFromBytes(obs.Image.W, obs.Image.H, pix)
	})
	if err != nil {
		return p, fmt.Errorf("allocation probe: %w", err)
	}
	p.actAllocs, p.actKB = allocsOf(probeCalls, func() { ctl, err = a.Act(img, obs.Speed, obs.Command) })
	if err != nil {
		return p, fmt.Errorf("allocation probe: %w", err)
	}
	p.stepAllocs, _ = allocsOf(probeCalls, func() { e.Step(ctl) })
	if e.Done() {
		return p, fmt.Errorf("allocation probe: episode ended inside the step probe")
	}
	return p, nil
}

// trainLayers is the training workload's traced form: avfi.TrainAgent's
// two halves (agent.TrainNew) called one by one.
type trainLayers struct {
	samples        int
	demoFrames     int
	collect, train time.Duration
	trainAllocKB   float64
}

func traceTrainLayers(w *avfi.World, spec avfi.PretrainSpec) (trainLayers, error) {
	var out trainLayers
	cam := w.Renderer().Config()
	spec.Agent.ImageW, spec.Agent.ImageH = cam.Width, cam.Height

	t0 := time.Now()
	data, err := agent.CollectDataset(w, spec.Missions, spec.DataSeed, spec.Collect)
	out.collect = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.samples = len(data)
	// Collection keeps every KeepEvery-th frame of each demonstration.
	out.demoFrames = len(data) * max(spec.Collect.KeepEvery, 1)

	a, err := avfi.NewAgent(spec.Agent)
	if err != nil {
		return out, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	_, err = a.Train(data, spec.Train)
	out.train = time.Since(t0)
	runtime.ReadMemStats(&after)
	out.trainAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return out, err
}
