package sim

import (
	"math"
	"testing"

	"github.com/avfi/avfi/internal/actors"
	"github.com/avfi/avfi/internal/autopilot"
	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/physics"
	"github.com/avfi/avfi/internal/render"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/sensors"
	"github.com/avfi/avfi/internal/world"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(DefaultWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// missionPair picks a plannable mission.
func missionPair(t *testing.T, w *World, seed uint64) (world.NodeID, world.NodeID) {
	t.Helper()
	from, to, err := w.Town().RandomMission(rng.New(seed), 150)
	if err != nil {
		t.Fatal(err)
	}
	return from, to
}

// driveWithAutopilot runs an episode to completion under the oracle.
func driveWithAutopilot(t *testing.T, e *Episode) Result {
	t.Helper()
	pilot := autopilot.New(e.Route(), e.EgoParams(), autopilot.DefaultConfig())
	for !e.Done() {
		obs := obstacleBoxes(e)
		e.Step(pilot.Control(e.EgoState(), obs))
		if e.Frame() > FPS*600 {
			t.Fatal("episode ran far past any sane timeout")
		}
	}
	return e.Result()
}

func obstacleBoxes(e *Episode) []geom.OBB {
	var out []geom.OBB
	for _, o := range e.obstacles() {
		out = append(out, o.Box)
	}
	return out
}

func TestNewEpisodeValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := w.NewEpisode(EpisodeConfig{From: 0, To: 0}); err == nil {
		t.Error("same start/goal did not error")
	}
	if _, err := w.NewEpisode(EpisodeConfig{From: 0, To: 1, NumNPCs: -1}); err == nil {
		t.Error("negative NPCs did not error")
	}
	if _, err := w.NewEpisode(EpisodeConfig{From: 0, To: world.NodeID(999)}); err == nil {
		t.Error("bogus goal did not error")
	}
	for _, bad := range []EpisodeConfig{
		{From: 0, To: 1, NumNPCs: MaxActors + 1},
		{From: 0, To: 1, NumPedestrians: MaxActors + 1},
		{From: 0, To: 1, Weather: world.WeatherFog + 1},
		{From: 0, To: 1, Weather: 200},
	} {
		if _, err := w.NewEpisode(bad); err == nil {
			t.Errorf("%+v did not error", bad)
		}
	}
	for _, ok := range []EpisodeConfig{
		{From: 0, To: 1, NumNPCs: MaxActors, NumPedestrians: MaxActors},
		{From: 0, To: 1, Weather: world.WeatherInvalid},
		{From: 0, To: 1, Weather: world.WeatherFog},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
}

func TestAutopilotCompletesMissionCleanly(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 1)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := driveWithAutopilot(t, e)
	if !res.Success {
		t.Fatalf("autopilot failed mission: %+v", res)
	}
	if len(res.Violations) != 0 {
		t.Errorf("autopilot committed violations: %v", res.Violations)
	}
	if res.DistanceM < res.RouteLengthM*0.8 {
		t.Errorf("distance %v suspiciously short for route %v", res.DistanceM, res.RouteLengthM)
	}
}

func TestAutopilotCompletesManyMissions(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mission drive is slow")
	}
	w := testWorld(t)
	for seed := uint64(2); seed < 7; seed++ {
		from, to := missionPair(t, w, seed)
		e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: seed * 100})
		if err != nil {
			t.Fatal(err)
		}
		res := driveWithAutopilot(t, e)
		if !res.Success {
			t.Errorf("mission %d->%d (seed %d) failed: %+v", from, to, seed, res.Status)
		}
		if len(res.Violations) > 0 {
			t.Errorf("mission %d->%d: autopilot violations %v", from, to, res.Violations)
		}
	}
}

func TestEpisodeDeterministic(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 3)
	run := func() Result {
		e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 42, NumNPCs: 3, NumPedestrians: 3})
		if err != nil {
			t.Fatal(err)
		}
		return driveWithAutopilot(t, e)
	}
	a, b := run(), run()
	if a.Frames != b.Frames || a.DistanceM != b.DistanceM || len(a.Violations) != len(b.Violations) {
		t.Errorf("episodes with same seed diverged: %+v vs %+v", a, b)
	}
}

func TestTimeoutTriggersWithoutControl(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 4)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 5, TimeoutSec: 3})
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.Step(physics.Control{}) // parked
	}
	if e.Status() != StatusTimeout {
		t.Errorf("status = %v, want timeout", e.Status())
	}
	if res := e.Result(); res.Success {
		t.Error("parked episode reported success")
	}
}

func TestStepAfterDoneIsNoOp(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 5)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 6, TimeoutSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.Step(physics.Control{})
	}
	frames := e.Frame()
	e.Step(physics.Control{Throttle: 1})
	if e.Frame() != frames {
		t.Error("Step after done advanced the clock")
	}
}

func TestObserveFields(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 6)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 7, NumNPCs: 2, NumPedestrians: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := e.Observe()
	if obs.Image == nil || obs.Image.W != w.Renderer().Config().Width {
		t.Fatal("observation image missing or wrong size")
	}
	if obs.Command == world.TurnInvalid {
		t.Error("observation command invalid")
	}
	if obs.Done {
		t.Error("fresh episode reports done")
	}
	// GPS should be near the true position (sub-2m with default noise).
	if obs.GPS.Dist(e.EgoState().Pose.Pos) > 3 {
		t.Errorf("GPS reading %v far from truth %v", obs.GPS, e.EgoState().Pose.Pos)
	}
	// Ego parked: speedometer reads 0.
	if obs.Speed != 0 {
		t.Errorf("parked speed reading = %v", obs.Speed)
	}
}

func TestHardLeftCausesViolations(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 7)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 8, TimeoutSec: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Full throttle, hard left: must cross the center line and leave the road.
	for !e.Done() {
		e.Step(physics.Control{Steer: 1, Throttle: 1})
	}
	res := e.Result()
	if len(res.Violations) == 0 {
		t.Fatal("reckless driving produced no violations")
	}
	kinds := map[ViolationKind]bool{}
	for _, v := range res.Violations {
		kinds[v.Kind] = true
	}
	if !kinds[ViolationLane] && !kinds[ViolationCurb] {
		t.Errorf("expected lane or curb violation, got %v", res.Violations)
	}
}

func TestViolationDebounce(t *testing.T) {
	tr := newViolationTracker()
	pos := geom.V(0, 0)
	// Condition held for 1s: one event.
	for f := 0; f < FPS; f++ {
		tr.observe(ViolationLane, true, float64(f)*Dt, pos)
	}
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("continuous condition produced %d events, want 1", n)
	}
	// Clears briefly (less than cooldown), returns: still one event.
	for f := FPS; f < FPS+5; f++ {
		tr.observe(ViolationLane, false, float64(f)*Dt, pos)
	}
	for f := FPS + 5; f < 2*FPS; f++ {
		tr.observe(ViolationLane, true, float64(f)*Dt, pos)
	}
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("blip produced %d events, want 1", n)
	}
	// Clears for > cooldown, returns: second event.
	gap := int(violationCooldownSec*FPS) + 3
	for f := 2 * FPS; f < 2*FPS+gap; f++ {
		tr.observe(ViolationLane, false, float64(f)*Dt, pos)
	}
	tr.observe(ViolationLane, true, float64(2*FPS+gap)*Dt, pos)
	if n := len(tr.Events()); n != 2 {
		t.Fatalf("separated episodes produced %d events, want 2", n)
	}
}

func TestViolationKindStringsAndAccidents(t *testing.T) {
	if !ViolationCollisionPedestrian.IsAccident() || !ViolationCollisionVehicle.IsAccident() || !ViolationCollisionStatic.IsAccident() {
		t.Error("collision kinds not accidents")
	}
	if ViolationLane.IsAccident() || ViolationCurb.IsAccident() {
		t.Error("non-collision kinds reported as accidents")
	}
	for k, want := range map[ViolationKind]string{
		ViolationLane: "lane", ViolationCurb: "curb",
		ViolationCollisionVehicle: "collision-vehicle", ViolationInvalid: "invalid",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusRunning: "running", StatusSuccess: "success",
		StatusTimeout: "timeout", StatusInvalid: "invalid",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestNPCsAndPedsSpawn(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 8)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 9, NumNPCs: 5, NumPedestrians: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.npcs) == 0 || len(e.peds) == 0 {
		t.Fatalf("spawned %d NPCs, %d peds", len(e.npcs), len(e.peds))
	}
	// None may spawn on top of the ego.
	for _, v := range e.npcs {
		if v.State.Pose.Pos.Dist(e.EgoState().Pose.Pos) < 20 {
			t.Error("NPC spawned too close to ego")
		}
	}
}

func TestCollisionWithNPCBlocksAndCounts(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 9)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 11, TimeoutSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a stationary NPC directly ahead of the ego on its lane.
	ahead := e.EgoState().Pose.Advance(12)
	npc := plantNPC(t, e, ahead)
	_ = npc
	// Drive straight into it.
	for !e.Done() && e.TimeSec() < 10 {
		e.Step(physics.Control{Throttle: 1})
	}
	res := e.Result()
	found := false
	for _, v := range res.Violations {
		if v.Kind == ViolationCollisionVehicle {
			found = true
		}
	}
	if !found {
		t.Errorf("head-on NPC collision not detected: %v", res.Violations)
	}
	// The crash must have blocked the ego (inelastic stop), so it cannot
	// be far past the NPC.
	if e.EgoState().Pose.Pos.Dist(ahead.Pos) > 20 {
		t.Error("ego drove through the NPC")
	}
}

// plantNPC inserts a parked NPC at the pose.
func plantNPC(t *testing.T, e *Episode, pose geom.Pose) *geom.OBB {
	t.Helper()
	v := actors.NewParked(e.w.town, pose)
	e.npcs = append(e.npcs, v)
	box := v.OBB()
	return &box
}

func TestLidarScanFromEpisode(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 10)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 12, NumNPCs: 3})
	if err != nil {
		t.Fatal(err)
	}
	l := sensors.NewLidar(36, 80)
	ranges := e.LidarScan(l)
	if len(ranges) != 36 {
		t.Fatalf("beam count %d", len(ranges))
	}
	for _, r := range ranges {
		if r <= 0 || r > 80 || math.IsNaN(r) {
			t.Fatalf("bad lidar range %v", r)
		}
	}
}

func TestEpisodeConfigDefaults(t *testing.T) {
	c := EpisodeConfig{From: 0, To: 1}.withDefaults(400)
	if c.Weather != world.WeatherClear {
		t.Error("default weather not clear")
	}
	if c.TimeoutSec <= 0 || c.GoalRadius <= 0 {
		t.Error("defaults not filled")
	}
	// Longer routes get more time.
	c2 := EpisodeConfig{From: 0, To: 1}.withDefaults(800)
	if c2.TimeoutSec <= c.TimeoutSec {
		t.Error("timeout not scaled with route length")
	}
}

func TestWeatherAffectsObservation(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 11)
	mk := func(weather world.Weather) Observation {
		e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 13, Weather: weather})
		if err != nil {
			t.Fatal(err)
		}
		return e.Observe()
	}
	clear := mk(world.WeatherClear)
	fog := mk(world.WeatherFog)
	diff := 0
	for i := range clear.Image.Pix {
		if clear.Image.Pix[i] != fog.Image.Pix[i] {
			diff++
		}
	}
	if diff < len(clear.Image.Pix)/4 {
		t.Errorf("fog changed only %d/%d pixels", diff, len(clear.Image.Pix))
	}
}

func TestObservationHasLidar(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 12)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 14, NumNPCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := e.Observe()
	if len(obs.Lidar) != DefaultWorldConfig().LidarBeams {
		t.Fatalf("lidar beams = %d", len(obs.Lidar))
	}
	for i, r := range obs.Lidar {
		if r <= 0 || r > DefaultWorldConfig().LidarRange {
			t.Fatalf("beam %d = %v out of range", i, r)
		}
	}
}

func TestWorldWithoutLidar(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.LidarBeams = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	from, to, err := w.Town().RandomMission(rng.New(15), 150)
	if err != nil {
		t.Fatal(err)
	}
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if obs := e.Observe(); obs.Lidar != nil {
		t.Error("lidar present with LidarBeams=0")
	}
}

func TestTopDownViewFromEpisode(t *testing.T) {
	w := testWorld(t)
	from, to := missionPair(t, w, 13)
	e, err := w.NewEpisode(EpisodeConfig{From: from, To: to, Seed: 17, NumNPCs: 2, NumPedestrians: 2})
	if err != nil {
		t.Fatal(err)
	}
	im := e.TopDownView(render.TopDownConfig{Width: 128, Height: 128})
	if im.W != 128 || im.H != 128 {
		t.Fatalf("top-down size %dx%d", im.W, im.H)
	}
	// The ego marker (bright yellow) must be present.
	found := false
	for y := 0; y < im.H && !found; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.RGB(y, x)
			if r > 0.9 && g > 0.85 && b < 0.3 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("ego marker missing from top-down view")
	}
}
