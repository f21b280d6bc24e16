package world

import (
	"fmt"
	"math"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/rng"
)

// Weather is the ambient condition of an episode. It perturbs the rendered
// camera image (fog flattens contrast, rain adds streaks and droplets) the
// way CARLA's weather presets do.
type Weather int

// Weather presets. Enums start at one.
const (
	WeatherInvalid Weather = iota
	WeatherClear
	WeatherRain
	WeatherFog
)

// String implements fmt.Stringer.
func (w Weather) String() string {
	switch w {
	case WeatherClear:
		return "clear"
	case WeatherRain:
		return "rain"
	case WeatherFog:
		return "fog"
	default:
		return "invalid"
	}
}

// Building is a box obstacle/occluder with a render height and shade.
type Building struct {
	Box geom.AABB
	// Height in meters, used by the renderer to extrude walls.
	Height float64
	// Shade in [0,1] tints the walls so buildings are visually distinct.
	Shade float64
}

// Town is a generated world: road network, buildings, and spawn points.
type Town struct {
	Net       *Network
	Buildings []Building
	// Spawns are poses on right-lane centerlines, heading along traffic.
	Spawns []geom.Pose
	Bounds geom.AABB
}

// TownConfig parameterizes GenerateTown.
type TownConfig struct {
	// GridW, GridH are the number of intersections per axis.
	GridW, GridH int
	// Spacing is the block size in meters.
	Spacing float64
	// LaneWidth and SidewalkWidth set the street cross-section.
	LaneWidth     float64
	SidewalkWidth float64
	// EdgeKeepProb is the probability of keeping each non-tree grid edge;
	// the spanning tree is always kept so the network stays connected.
	EdgeKeepProb float64
	// BuildingDensity is the probability a block interior gets a building.
	BuildingDensity float64
}

// DefaultTownConfig returns the configuration used across the paper-figure
// experiments: a 4x4 grid town, CARLA-like 3.5 m lanes.
func DefaultTownConfig() TownConfig {
	return TownConfig{
		GridW:           4,
		GridH:           4,
		Spacing:         90,
		LaneWidth:       3.5,
		SidewalkWidth:   2,
		EdgeKeepProb:    0.85,
		BuildingDensity: 0.9,
	}
}

// Validate checks the configuration is generable.
func (c TownConfig) Validate() error {
	if c.GridW < 2 || c.GridH < 2 {
		return fmt.Errorf("world: grid %dx%d too small", c.GridW, c.GridH)
	}
	if c.Spacing < 4*c.LaneWidth {
		return fmt.Errorf("world: spacing %.1f too small for lane width %.1f", c.Spacing, c.LaneWidth)
	}
	if c.LaneWidth <= 0 {
		return fmt.Errorf("world: non-positive lane width")
	}
	return nil
}

// GenerateTown builds a procedural grid town. The same (config, stream
// state) always yields the same town; campaigns derive the stream from the
// campaign seed.
func GenerateTown(cfg TownConfig, r *rng.Stream) (*Town, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := NewNetwork(cfg.LaneWidth, cfg.SidewalkWidth)

	// Grid nodes.
	ids := make([][]NodeID, cfg.GridH)
	for y := 0; y < cfg.GridH; y++ {
		ids[y] = make([]NodeID, cfg.GridW)
		for x := 0; x < cfg.GridW; x++ {
			ids[y][x] = net.AddNode(geom.V(float64(x)*cfg.Spacing, float64(y)*cfg.Spacing))
		}
	}

	// Spanning tree (randomized DFS) keeps connectivity...
	type cell struct{ x, y int }
	visited := make(map[cell]bool)
	var stack []cell
	start := cell{r.Intn(cfg.GridW), r.Intn(cfg.GridH)}
	stack = append(stack, start)
	visited[start] = true
	inTree := make(map[[2]NodeID]bool)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
		r.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
		advanced := false
		for _, d := range dirs {
			nx, ny := cur.x+d[0], cur.y+d[1]
			if nx < 0 || ny < 0 || nx >= cfg.GridW || ny >= cfg.GridH || visited[cell{nx, ny}] {
				continue
			}
			a, b := ids[cur.y][cur.x], ids[ny][nx]
			net.AddEdge(a, b)
			key := edgeKey(a, b)
			inTree[key] = true
			visited[cell{nx, ny}] = true
			stack = append(stack, cell{nx, ny})
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}

	// ...then keep a fraction of the remaining grid edges for loops.
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			if x+1 < cfg.GridW {
				maybeKeepEdge(net, inTree, ids[y][x], ids[y][x+1], cfg.EdgeKeepProb, r)
			}
			if y+1 < cfg.GridH {
				maybeKeepEdge(net, inTree, ids[y][x], ids[y+1][x], cfg.EdgeKeepProb, r)
			}
		}
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("world: generated network invalid: %w", err)
	}

	town := &Town{Net: net}

	// Buildings fill block interiors, set back from the sidewalks.
	setback := net.RoadHalfWidth() + cfg.SidewalkWidth + 2
	for y := 0; y+1 < cfg.GridH; y++ {
		for x := 0; x+1 < cfg.GridW; x++ {
			if !r.Bool(cfg.BuildingDensity) {
				continue
			}
			blockMin := geom.V(float64(x)*cfg.Spacing+setback, float64(y)*cfg.Spacing+setback)
			blockMax := geom.V(float64(x+1)*cfg.Spacing-setback, float64(y+1)*cfg.Spacing-setback)
			if blockMax.X-blockMin.X < 10 || blockMax.Y-blockMin.Y < 10 {
				continue
			}
			// Random sub-rectangle of the block.
			w := r.Range(0.5, 1.0) * (blockMax.X - blockMin.X)
			h := r.Range(0.5, 1.0) * (blockMax.Y - blockMin.Y)
			ox := r.Range(0, (blockMax.X-blockMin.X)-w)
			oy := r.Range(0, (blockMax.Y-blockMin.Y)-h)
			min := blockMin.Add(geom.V(ox, oy))
			town.Buildings = append(town.Buildings, Building{
				Box:    geom.NewAABB(min, min.Add(geom.V(w, h))),
				Height: r.Range(6, 25),
				Shade:  r.Range(0.3, 0.8),
			})
		}
	}

	// Spawn points: along each directed lane, every ~spacing/4, trimmed
	// away from junctions.
	for _, e := range net.segs {
		for _, dir := range [][2]NodeID{{e.a, e.b}, {e.b, e.a}} {
			a := net.nodes[dir[0]].Pos
			b := net.nodes[dir[1]].Pos
			d := b.Sub(a)
			segLen := d.Len()
			u := d.Norm()
			right := u.Perp().Scale(-1)
			off := right.Scale(cfg.LaneWidth / 2)
			for s := cfg.Spacing / 4; s < segLen-cfg.Spacing/4; s += cfg.Spacing / 4 {
				town.Spawns = append(town.Spawns, geom.Pose{
					Pos:     a.Add(u.Scale(s)).Add(off),
					Heading: u.Angle(),
				})
			}
		}
	}

	margin := cfg.Spacing / 2
	town.Bounds = geom.NewAABB(
		geom.V(-margin, -margin),
		geom.V(float64(cfg.GridW-1)*cfg.Spacing+margin, float64(cfg.GridH-1)*cfg.Spacing+margin),
	)
	return town, nil
}

func maybeKeepEdge(net *Network, inTree map[[2]NodeID]bool, a, b NodeID, p float64, r *rng.Stream) {
	if inTree[edgeKey(a, b)] {
		return
	}
	if r.Bool(p) {
		net.AddEdge(a, b)
	}
}

func edgeKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// RandomMission picks a start/goal intersection pair at least minDist apart
// (straight line) and returns them. It is how campaigns sample the paper's
// "navigating between way points in the simulated world" missions.
func (t *Town) RandomMission(r *rng.Stream, minDist float64) (from, to NodeID, err error) {
	n := t.Net.NodeCount()
	for attempt := 0; attempt < 200; attempt++ {
		from = NodeID(r.Intn(n))
		to = NodeID(r.Intn(n))
		if from == to {
			continue
		}
		if t.Net.Node(from).Pos.Dist(t.Net.Node(to).Pos) < minDist {
			continue
		}
		return from, to, nil
	}
	return 0, 0, fmt.Errorf("world: no mission pair at distance >= %.0f found", minDist)
}

// CollidesBuilding reports whether the OBB overlaps any building footprint.
func (t *Town) CollidesBuilding(box geom.OBB) bool {
	bb := box.AABB()
	for _, b := range t.Buildings {
		if !bb.Intersects(b.Box) {
			continue
		}
		// AABB-vs-OBB: treat the building as an OBB with zero rotation.
		c := b.Box.Center()
		size := b.Box.Size()
		bObb := geom.NewOBB(geom.Pose{Pos: c}, size.X, size.Y)
		if box.Intersects(bObb) {
			return true
		}
	}
	return false
}

// RaycastBuildings returns the distance to the nearest building wall hit by
// the ray, within maxDist, plus the building's shade and height. The
// renderer and the LIDAR sensor share this query. ok is false on a miss.
func (t *Town) RaycastBuildings(ray geom.Ray, maxDist float64) (dist float64, b Building, ok bool) {
	best := maxDist
	for _, bd := range t.Buildings {
		if !rayMayHit(ray, bd.Box, best) {
			continue
		}
		for _, s := range aabbEdges(bd.Box) {
			if tHit, hit := ray.IntersectSegment(s); hit && tHit < best {
				best = tHit
				b = bd
				ok = true
			}
		}
	}
	if !ok {
		return 0, Building{}, false
	}
	return best, b, true
}

// rayMayHit is a slab test: false only when the ray stays outside box,
// grown by rayBoxSlack, for every t in [0, best]. Any wall hit the edge
// intersections could report nearer than best lies on the box boundary, so
// skipping a box it rejects changes no answer.
func rayMayHit(ray geom.Ray, box geom.AABB, best float64) bool {
	lo, hi := 0.0, best
	return slab(ray.Origin.X, ray.Dir.X, box.Min.X, box.Max.X, &lo, &hi) &&
		slab(ray.Origin.Y, ray.Dir.Y, box.Min.Y, box.Max.Y, &lo, &hi)
}

// slab narrows [lo, hi] to the ray parameters inside one axis's slab of
// the grown box and reports whether any remain.
func slab(o, d, bmin, bmax float64, lo, hi *float64) bool {
	bmin, bmax = bmin-rayBoxSlack, bmax+rayBoxSlack
	if d == 0 {
		return o >= bmin && o <= bmax
	}
	t0, t1 := (bmin-o)/d, (bmax-o)/d
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	if t0 > *lo {
		*lo = t0
	}
	if t1 < *hi {
		*hi = t1
	}
	return *lo <= *hi
}

// rayBoxSlack (meters) absorbs the rounding in rayMayHit and in the edge
// intersections, so a grazing hit is never skipped.
const rayBoxSlack = 1e-6

func aabbEdges(b geom.AABB) [4]geom.Segment {
	p1 := b.Min
	p2 := geom.V(b.Max.X, b.Min.Y)
	p3 := b.Max
	p4 := geom.V(b.Min.X, b.Max.Y)
	return [4]geom.Segment{
		geom.Seg(p1, p2), geom.Seg(p2, p3), geom.Seg(p3, p4), geom.Seg(p4, p1),
	}
}

// NearestSpawn returns the spawn pose closest to p; used to place NPC
// vehicles near but not on top of the ego vehicle.
func (t *Town) NearestSpawn(p geom.Vec) (geom.Pose, error) {
	if len(t.Spawns) == 0 {
		return geom.Pose{}, fmt.Errorf("world: town has no spawn points")
	}
	best := math.MaxFloat64
	var bestPose geom.Pose
	for _, s := range t.Spawns {
		if d := s.Pos.DistSq(p); d < best {
			best = d
			bestPose = s
		}
	}
	return bestPose, nil
}
