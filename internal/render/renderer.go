package render

import (
	"math"
	"sort"
	"sync"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/rng"
	"github.com/avfi/avfi/internal/world"
)

// Config parameterizes the camera.
type Config struct {
	// Width and Height are the frame size in pixels.
	Width, Height int
	// FOV is the horizontal field of view in radians.
	FOV float64
	// CamHeight is the lens height above the road in meters (hood mount).
	CamHeight float64
	// MaxViewDist culls geometry beyond this range in meters.
	MaxViewDist float64
}

// DefaultConfig returns the camera used by the experiments: a small frame
// (the IL network downsamples anyway) with a wide hood view.
func DefaultConfig() Config {
	return Config{
		Width:       64,
		Height:      48,
		FOV:         100 * math.Pi / 180,
		CamHeight:   1.4,
		MaxViewDist: 120,
	}
}

// Obstacle is a dynamic box to draw: another vehicle or a pedestrian.
type Obstacle struct {
	Box geom.OBB
	// Height in meters.
	Height float64
	// Kind selects the palette.
	Kind ObstacleKind
}

// ObstacleKind selects an obstacle's color class.
type ObstacleKind int

// Obstacle kinds. Enums start at one.
const (
	ObstacleInvalid ObstacleKind = iota
	ObstacleVehicle
	ObstaclePedestrian
)

// Scene is one frame's world state as seen from the ego camera.
type Scene struct {
	// CamPose is the camera pose (position on the road plane + heading).
	CamPose geom.Pose
	Weather world.Weather
	// Obstacles are everything dynamic except the ego vehicle.
	Obstacles []Obstacle
	// Frame numbers the frame within the episode; rain streaks derive
	// deterministically from it.
	Frame int
}

// Renderer draws camera frames of one town. Its ray tables depend only on
// the Config; the first Render fills them, so that constructing a
// renderer (and with it a world) stays as cheap as it was before them.
// After that it holds no mutable state, so it is safe for concurrent use by
// multiple goroutines.
type Renderer struct {
	cfg   Config
	town  *world.Town
	focal float64 // pixels
	cx    float64
	cy    float64

	raysOnce sync.Once
	rays     *rayTables
}

// rayTables holds every ray of the camera in its own frame.
type rayTables struct {
	// colAtan is each column's ray angle off the camera heading.
	colAtan []float64
	rows    []rowRay
	// ground holds each ground pixel's ray, column-major (x*Height + y).
	ground []groundRay
}

// rowRay is one image row: rows above the horizon are sky, with their
// colour in clear air and in fog.
type rowRay struct {
	sky      bool
	skyClear [3]float64
	skyFog   [3]float64
}

// groundRay is where one ground pixel's ray meets the road: dist meters
// out horizontally, with fog blending fogFactor(dist) of the fog colour in.
type groundRay struct {
	dist, fog float64
}

// New constructs a renderer.
func New(cfg Config, town *world.Town) *Renderer {
	return &Renderer{
		cfg:   cfg,
		town:  town,
		focal: float64(cfg.Width) / 2 / math.Tan(cfg.FOV/2),
		cx:    float64(cfg.Width)/2 - 0.5,
		cy:    float64(cfg.Height)/2 - 0.5,
	}
}

// tables returns the ray tables, filling them on first use.
func (r *Renderer) tables() *rayTables {
	r.raysOnce.Do(func() { r.rays = r.newRayTables() })
	return r.rays
}

func (r *Renderer) newRayTables() *rayTables {
	w, h := max(r.cfg.Width, 0), max(r.cfg.Height, 0)
	t := &rayTables{
		colAtan: make([]float64, w),
		rows:    make([]rowRay, h),
		ground:  make([]groundRay, w*h),
	}
	groundT := make([]float64, h)
	for y := range t.rows {
		b := (r.cy - float64(y)) / r.focal // + = up
		if b >= -1e-6 {
			// Sky gradient toward the horizon.
			c := lerpColor(colSkyHorizon, colSkyTop, geom.Clamp(b*3, 0, 1))
			t.rows[y] = rowRay{sky: true, skyClear: c, skyFog: lerpColor(c, colFog, 0.85)}
			continue
		}
		// Ground intersection: ray (1, a, b) scaled so z drops CamHeight.
		groundT[y] = r.cfg.CamHeight / -b
	}
	for x := range t.colAtan {
		// Camera-frame lateral slope of this column's rays: +a = left.
		a := (r.cx - float64(x)) / r.focal
		t.colAtan[x] = math.Atan(a)
		norm := math.Hypot(1, a)
		for y, gt := range groundT {
			dist := gt * norm
			t.ground[x*h+y] = groundRay{dist: dist, fog: fogFactor(dist)}
		}
	}
	return t
}

// Config returns the renderer's camera configuration.
func (r *Renderer) Config() Config { return r.cfg }

// palette
var (
	colAsphalt       = [3]float64{0.25, 0.25, 0.27}
	colAsphaltWet    = [3]float64{0.18, 0.18, 0.21}
	colCenterLine    = [3]float64{0.85, 0.75, 0.20}
	colEdgeLine      = [3]float64{0.92, 0.92, 0.92}
	colSidewalk      = [3]float64{0.55, 0.54, 0.52}
	colGrass         = [3]float64{0.24, 0.46, 0.22}
	colSkyTop        = [3]float64{0.33, 0.52, 0.83}
	colSkyHorizon    = [3]float64{0.72, 0.80, 0.92}
	colFog           = [3]float64{0.65, 0.67, 0.70}
	colVehicle       = [3]float64{0.72, 0.14, 0.10}
	colPedestrian    = [3]float64{0.16, 0.18, 0.65}
	colBuildingBase  = [3]float64{0.78, 0.72, 0.66}
	markHalfWidth    = 0.14
	centerDashPeriod = 6.0
	centerDashOn     = 3.5
)

// maxStackObstacles is how many obstacles Render holds on its stack; a
// scene with more allocates one more slice per frame.
const maxStackObstacles = 32

// Render draws one frame.
func (r *Renderer) Render(scene Scene) *Image {
	im := NewImage(r.cfg.Width, r.cfg.Height)
	fog := scene.Weather == world.WeatherFog
	// Every column casts against the same obstacle walls: find them once.
	var edgeBuf [maxStackObstacles][4]geom.Segment
	edges := edgeBuf[:0]
	for _, ob := range scene.Obstacles {
		edges = append(edges, ob.Box.Edges())
	}
	rays := r.tables()
	for x, atan := range rays.colAtan {
		dirWorld := geom.FromAngle(scene.CamPose.Heading + atan)
		r.renderSkyAndGround(im, scene, rays, x, dirWorld, fog)
		r.renderWalls(im, scene, edges, x, dirWorld, fog)
	}

	if scene.Weather == world.WeatherRain {
		r.renderRainStreaks(im, scene)
	}
	return im
}

// renderSkyAndGround fills one column's sky gradient and classified ground.
func (r *Renderer) renderSkyAndGround(im *Image, scene Scene, rays *rayTables, x int, dirWorld geom.Vec, fog bool) {
	ground := rays.ground[x*len(rays.rows):]
	for y := range rays.rows {
		row := &rays.rows[y]
		if row.sky {
			c := row.skyClear
			if fog {
				c = row.skyFog
			}
			im.SetRGB(y, x, c[0], c[1], c[2])
			continue
		}
		g := ground[y]
		var c [3]float64
		if g.dist > r.cfg.MaxViewDist {
			c = colGrass
		} else {
			c = r.classifyGround(scene.CamPose.Pos.Add(dirWorld.Scale(g.dist)), scene.Weather)
		}
		if fog {
			c = lerpColor(c, colFog, g.fog)
		}
		im.SetRGB(y, x, c[0], c[1], c[2])
	}
}

// wallHit is one raycast hit in a column, drawn painter's-style.
type wallHit struct {
	dist   float64
	height float64
	color  [3]float64
}

// maxSortedHits is how many hits a column sorts in place. It equals
// sort.Slice's insertion-sort cutoff: up to 12 elements sort.Slice runs a
// stable insertion sort, so the in-place one below draws equal-distance
// hits in the same order. Busier columns spill to sort.Slice itself.
const maxSortedHits = 12

// renderWalls raycasts buildings and obstacles for one column and draws
// vertical spans far-to-near. edges[i] are the walls of scene.Obstacles[i].
func (r *Renderer) renderWalls(im *Image, scene Scene, edges [][4]geom.Segment, x int, dirWorld geom.Vec, fog bool) {
	ray := geom.NewRay(scene.CamPose.Pos, dirWorld)
	var buf [maxSortedHits]wallHit
	hits := buf[:0]

	if d, b, ok := r.town.RaycastBuildings(ray, r.cfg.MaxViewDist); ok {
		c := [3]float64{
			colBuildingBase[0] * b.Shade,
			colBuildingBase[1] * b.Shade,
			colBuildingBase[2] * b.Shade,
		}
		hits = append(hits, wallHit{dist: d, height: b.Height, color: c})
	}

	for i, ob := range scene.Obstacles {
		d, ok := raycastEdges(ray, &edges[i], r.cfg.MaxViewDist)
		if !ok {
			continue
		}
		c := colVehicle
		if ob.Kind == ObstaclePedestrian {
			c = colPedestrian
		}
		hits = append(hits, wallHit{dist: d, height: ob.Height, color: c})
	}
	if len(hits) <= maxSortedHits {
		// Farthest first; a hit moves only past strictly nearer ones.
		for i := 1; i < len(hits); i++ {
			for j := i; j > 0 && hits[j].dist > hits[j-1].dist; j-- {
				hits[j], hits[j-1] = hits[j-1], hits[j]
			}
		}
	} else {
		// A copy, so that buf itself never escapes to the heap.
		spill := append([]wallHit(nil), hits...)
		sort.Slice(spill, func(i, j int) bool { return spill[i].dist > spill[j].dist })
		hits = spill
	}

	for _, h := range hits {
		if h.dist < 0.3 {
			h.dist = 0.3
		}
		// Perspective rows for the wall top and bottom on this column: a
		// point at height z and ray-horizontal distance d projects to
		// vertical slope (z - camHeight)/d relative to the column ray.
		top := r.cy - r.focal*(h.height-r.cfg.CamHeight)/h.dist
		bottom := r.cy + r.focal*r.cfg.CamHeight/h.dist
		y0 := int(math.Max(0, math.Ceil(top)))
		y1 := int(math.Min(float64(r.cfg.Height-1), math.Floor(bottom)))
		c := h.color
		if fog {
			c = lerpColor(c, colFog, fogFactor(h.dist))
		}
		for y := y0; y <= y1; y++ {
			im.SetRGB(y, x, c[0], c[1], c[2])
		}
	}
}

// classifyGround maps a world point to its surface color.
func (r *Renderer) classifyGround(p geom.Vec, w world.Weather) [3]float64 {
	net := r.town.Net
	seg, dist, ok := net.NearestRoad(p)
	if !ok {
		return colGrass
	}
	asphalt := colAsphalt
	if w == world.WeatherRain {
		asphalt = colAsphaltWet
	}
	half := net.RoadHalfWidth()
	switch {
	case dist <= half:
		if net.InIntersection(p) {
			return asphalt
		}
		// Center line (dashed yellow).
		if dist < markHalfWidth {
			t, _ := seg.Project(p)
			along := t * seg.Len()
			if math.Mod(along, centerDashPeriod) < centerDashOn {
				return colCenterLine
			}
			return asphalt
		}
		// Edge line (solid white) just inside the curb.
		if math.Abs(dist-(half-0.25)) < markHalfWidth {
			return colEdgeLine
		}
		return asphalt
	case dist <= half+net.SidewalkWidth:
		return colSidewalk
	default:
		return colGrass
	}
}

// renderRainStreaks overlays deterministic rain streaks for the frame.
func (r *Renderer) renderRainStreaks(im *Image, scene Scene) {
	stream := rng.New(uint64(scene.Frame)*2654435761 + 17)
	n := r.cfg.Width * r.cfg.Height / 48
	for i := 0; i < n; i++ {
		x := stream.Intn(r.cfg.Width)
		y := stream.Intn(r.cfg.Height)
		l := 1 + stream.Intn(3)
		for dy := 0; dy < l && y+dy < r.cfg.Height; dy++ {
			rr, g, b := im.RGB(y+dy, x)
			im.SetRGB(y+dy, x, mix(rr, 0.8, 0.5), mix(g, 0.85, 0.5), mix(b, 0.9, 0.5))
		}
	}
}

// raycastEdges returns the nearest ray hit distance against a box's edges.
func raycastEdges(ray geom.Ray, edges *[4]geom.Segment, maxDist float64) (float64, bool) {
	best := maxDist
	ok := false
	for _, e := range edges {
		if t, hit := ray.IntersectSegment(e); hit && t < best {
			best = t
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

func lerpColor(a, b [3]float64, t float64) [3]float64 {
	return [3]float64{
		a[0] + (b[0]-a[0])*t,
		a[1] + (b[1]-a[1])*t,
		a[2] + (b[2]-a[2])*t,
	}
}

// fogRange is the fog's attenuation length in meters.
const fogRange = 35

// fogFactor is the share of fog colour at dist meters.
func fogFactor(dist float64) float64 { return 1 - math.Exp(-dist/fogRange) }

func mix(a, b, t float64) float64 { return a + (b-a)*t }
