package render

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/world"
)

// goldenFrames pins Render bit for bit: each entry is the SHA-256 of the
// float64 bits of Pix over every golden pose, in order, for one camera ×
// weather × obstacle set. A change to any pixel of any frame changes a hash;
// a renderer optimisation must leave them all as they are.
var goldenFrames = map[string]string{
	"64x48/clear/none":   "2ce960c52a74b262b7a801ec52eee11a58fe409088f25341f5fe0d6bf4041011",
	"64x48/clear/actors": "aad25d528a762eec3b273e5aaab5ff2c0034e75e60f7f928629f31da19b30eab",
	"64x48/rain/none":    "382b705ccfd88022da22fda79eecc7dbb151d59d87b45663199f9654b2fbba8b",
	"64x48/rain/actors":  "7a576d8920b69f65d74005f2fad5ea58280c3069ac76bdfcaca3e85a7d025780",
	"64x48/fog/none":     "77c60988d1e47cb498082849f79e7c6f3c535d99d5f3cab739d6cbf2099e154c",
	"64x48/fog/actors":   "f84e49440429be22b75e5596009db6019d2e711d62d7e2f7c455724a2a9cc2f9",
	"16x12/clear/none":   "f6ba13ce1be72875bea174a9025599e42100a999e94c80a2c1382db5ef673c35",
	"16x12/clear/actors": "8ccf580f803b4bba1248e9955375b6fd8349222112f7275fa5366e8e944375c3",
	"16x12/rain/none":    "130fa46b28c1d0d3dbc170f47cef9ee893fa5d57d4686aed891e982cc204998e",
	"16x12/rain/actors":  "36ecccd99d800dec69c3587b697e8bd86dbaec8e9fe2365e3459da8ba9454677",
	"16x12/fog/none":     "5cde357406ad1e871df85623325972cb0335cef9e4ebb0cf817e2234d33e42f5",
	"16x12/fog/actors":   "0b3e94c0294a84cd97d8a709f75ace7c287e648a003776c0671ecc714872a076",
}

// goldenPoses returns six spawns spread over the town plus poses on and
// beyond the town edge looking outward, whose far ground lies outside any
// road index and beyond MaxViewDist.
func goldenPoses(town *world.Town) []geom.Pose {
	var poses []geom.Pose
	for i := 0; i < 6; i++ {
		poses = append(poses, town.Spawns[i*len(town.Spawns)/6])
	}
	hi := town.Bounds.Max.Sub(geom.V(45, 45)) // the last grid line
	mid := hi.Scale(0.5)
	return append(poses,
		geom.P(-1.75, mid.Y, math.Pi),             // west edge, looking west
		geom.P(mid.X, hi.Y+1.75, math.Pi/2),       // north edge, looking north
		geom.P(hi.X+1.75, hi.Y/3, 0.2),            // east edge, looking out and along
		geom.P(hi.X, -1.75, -math.Pi/4),           // south-east corner, diagonal out
		geom.P(-70, -70, -3*math.Pi/4),            // outside the town entirely
		geom.P(mid.X+0.5, mid.Y+0.5, math.Pi/3+1), // off-lattice, mid-town
	)
}

// goldenActors places vehicles and pedestrians in front of pose. The last
// two share one box, so every column that hits them sees two walls at
// exactly equal ray distance: the pedestrian, listed second, is drawn over
// the taller vehicle, pinning the painter's order of ties.
func goldenActors(pose geom.Pose) []Obstacle {
	at := func(fwd, left, dh float64) geom.Pose {
		p := pose.ToWorld(geom.V(fwd, left))
		return geom.Pose{Pos: p, Heading: pose.Heading + dh}
	}
	tie := geom.NewOBB(at(24, 2.5, 0), 2, 2)
	return []Obstacle{
		{Box: geom.NewOBB(at(12, -0.3, 0.05), 4.5, 2), Height: 1.5, Kind: ObstacleVehicle},
		{Box: geom.NewOBB(at(18, -3, 0), 0.5, 0.5), Height: 1.8, Kind: ObstaclePedestrian},
		{Box: geom.NewOBB(at(35, 4, math.Pi/2), 4.5, 2), Height: 1.5, Kind: ObstacleVehicle},
		{Box: geom.NewOBB(at(6, 3, 0.7), 0.5, 0.5), Height: 1.8, Kind: ObstaclePedestrian},
		{Box: tie, Height: 2.5, Kind: ObstacleVehicle},
		{Box: tie, Height: 1.2, Kind: ObstaclePedestrian},
	}
}

func goldenCameras() map[string]Config {
	tiny := DefaultConfig()
	tiny.Width, tiny.Height = 16, 12
	return map[string]Config{"64x48": DefaultConfig(), "16x12": tiny}
}

func hashFrame(h interface{ Write([]byte) (int, error) }, im *Image) {
	var b [8]byte
	for _, v := range im.Pix {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func TestRenderGoldenFrames(t *testing.T) {
	town := testTown(t)
	poses := goldenPoses(town)
	weathers := []world.Weather{world.WeatherClear, world.WeatherRain, world.WeatherFog}
	for camName, cfg := range goldenCameras() {
		r := New(cfg, town)
		for _, w := range weathers {
			for _, withActors := range []bool{false, true} {
				key := fmt.Sprintf("%s/%v/none", camName, w)
				if withActors {
					key = fmt.Sprintf("%s/%v/actors", camName, w)
				}
				h := sha256.New()
				for i, pose := range poses {
					sc := Scene{CamPose: pose, Weather: w, Frame: i}
					if withActors {
						sc.Obstacles = goldenActors(pose)
					}
					hashFrame(h, r.Render(sc))
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != goldenFrames[key] {
					t.Errorf("%s: frame hash %s, want %s", key, got, goldenFrames[key])
				}
			}
		}
	}
}

// TestRenderGoldenTieVisible checks the equal-distance pair in goldenActors
// really is a tie that both walls survive: the taller vehicle's top shows
// above the pedestrian drawn over it.
func TestRenderGoldenTieVisible(t *testing.T) {
	town := singleRoadTown(t)
	r := New(DefaultConfig(), town)
	pose := straightRoadScene(town).CamPose
	actors := goldenActors(pose)
	sc := Scene{CamPose: pose, Weather: world.WeatherClear, Obstacles: actors[len(actors)-2:]}
	im := r.Render(sc)
	var red, blue bool
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			rr, gg, bb := im.RGB(y, x)
			red = red || (rr > 0.6 && gg < 0.3 && bb < 0.3)
			blue = blue || isPedestrianBlue(rr, gg, bb)
		}
	}
	if !red || !blue {
		t.Errorf("tie pair: vehicle visible %v, pedestrian visible %v; want both", red, blue)
	}
}

// TestRenderAllocs pins Render's allocations at the returned Image and its
// Pix, however wide the frame and however many obstacles the scene holds
// (up to maxStackObstacles) and a column hits (up to maxSortedHits).
func TestRenderAllocs(t *testing.T) {
	town := testTown(t)
	pose := town.Spawns[0]
	wide := DefaultConfig()
	wide.Width, wide.Height = 256, 48
	crowd := goldenActors(pose)
	for len(crowd) < maxStackObstacles {
		// Behind the camera: in the scene, hit by no column.
		behind := geom.Pose{Pos: pose.ToWorld(geom.V(-10-float64(len(crowd)), 0))}
		crowd = append(crowd, Obstacle{Box: geom.NewOBB(behind, 1, 1), Height: 1, Kind: ObstacleVehicle})
	}
	for _, cfg := range []Config{DefaultConfig(), wide} {
		r := New(cfg, town)
		for _, obs := range [][]Obstacle{nil, goldenActors(pose), crowd} {
			sc := Scene{CamPose: pose, Weather: world.WeatherClear, Obstacles: obs}
			if got := testing.AllocsPerRun(20, func() { r.Render(sc) }); got != 2 {
				t.Errorf("%dx%d, %d obstacles: %v allocations per Render, want 2", cfg.Width, cfg.Height, len(obs), got)
			}
		}
	}
}

// TestRenderCrowdedColumn: a column hitting more walls than maxSortedHits
// still draws them far to near, so the nearest is what shows.
func TestRenderCrowdedColumn(t *testing.T) {
	town := singleRoadTown(t)
	r := New(DefaultConfig(), town)
	sc := straightRoadScene(town)
	for i := 0; i < 2*maxSortedHits; i++ {
		kind := ObstacleVehicle
		if i == 0 {
			kind = ObstaclePedestrian
		}
		// Nearest first in the list, so only a real sort draws it last.
		sc.Obstacles = append(sc.Obstacles, Obstacle{
			Box:    geom.NewOBB(geom.P(55+4*float64(i), -1.75, 0), 1, 4),
			Height: 1.8, Kind: kind,
		})
	}
	im := r.Render(sc)
	if !isPedestrianBlue(im.RGB(im.H/2+2, im.W/2)) {
		t.Errorf("nearest of %d walls not drawn on top: %v", len(sc.Obstacles), fmt.Sprint(im.RGB(im.H/2+2, im.W/2)))
	}
}

// TestRenderConcurrentFirstFrames: goroutines sharing a fresh renderer (and
// a town whose road index is not built yet) race to draw its first frames,
// and each draws what a lone renderer draws (run under -race).
func TestRenderConcurrentFirstFrames(t *testing.T) {
	want := New(DefaultConfig(), testTown(t))
	town := testTown(t)
	r := New(DefaultConfig(), town)
	poses := goldenPoses(town)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(poses); i += 2 {
				sc := Scene{CamPose: poses[i], Weather: world.WeatherFog, Obstacles: goldenActors(poses[i])}
				if !slices.Equal(r.Render(sc).Pix, want.Render(sc).Pix) {
					t.Errorf("goroutine %d: pose %d differs from a lone renderer's frame", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
