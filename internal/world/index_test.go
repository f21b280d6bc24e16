package world

import (
	"math"
	"sync"
	"testing"

	"github.com/avfi/avfi/internal/geom"
	"github.com/avfi/avfi/internal/rng"
)

// The linear scans below are the queries as they were before the grid
// index: the reference every indexed answer must match bit for bit.

func linearNearestRoad(n *Network, p geom.Vec) (seg geom.Segment, dist float64, ok bool) {
	if len(n.segs) == 0 {
		return geom.Segment{}, 0, false
	}
	best := math.MaxFloat64
	for _, e := range n.segs {
		if d := e.seg.Dist(p); d < best {
			best = d
			seg = e.seg
		}
	}
	return seg, best, true
}

func linearInPad(n *Network, p geom.Vec, minDegree int) bool {
	for _, node := range n.nodes {
		if len(n.adj[node.ID]) < minDegree {
			continue
		}
		dp := p.Sub(node.Pos)
		if math.Abs(dp.X) <= n.RoadHalfWidth() && math.Abs(dp.Y) <= n.RoadHalfWidth() {
			return true
		}
	}
	return false
}

func linearOnRoad(n *Network, p geom.Vec) bool {
	_, d, ok := linearNearestRoad(n, p)
	if !ok {
		return false
	}
	return d <= n.RoadHalfWidth() || linearInPad(n, p, 1)
}

// checkAgainstLinear compares every indexed query with the linear scan at p
// and reports the first difference.
func checkAgainstLinear(t *testing.T, name string, n *Network, p geom.Vec) bool {
	t.Helper()
	seg, d, ok := n.NearestRoad(p)
	wseg, wd, wok := linearNearestRoad(n, p)
	switch {
	case seg != wseg || math.Float64bits(d) != math.Float64bits(wd) || ok != wok:
		t.Errorf("%s: NearestRoad(%v) = %v %v %v, linear scan %v %v %v", name, p, seg, d, ok, wseg, wd, wok)
	case n.OnRoad(p) != linearOnRoad(n, p):
		t.Errorf("%s: OnRoad(%v) = %v, linear scan %v", name, p, !linearOnRoad(n, p), linearOnRoad(n, p))
	case n.InIntersection(p) != linearInPad(n, p, 3):
		t.Errorf("%s: InIntersection(%v) = %v, linear scan %v", name, p, !linearInPad(n, p, 3), linearInPad(n, p, 3))
	default:
		return true
	}
	return false
}

// TestIndexMatchesLinearScan is the grid index's equivalence property: over
// twenty default towns and a 3×3 one, 100k points each — drawn across the
// grid and well beyond it, a quarter snapped to a 0.5 m lattice so that
// equidistant streets and pad edges tie exactly — NearestRoad's segment and
// distance bits, OnRoad and InIntersection all equal the linear scan's.
func TestIndexMatchesLinearScan(t *testing.T) {
	const points = 100_000
	cfgs := make([]TownConfig, 0, 21)
	for i := 0; i < 20; i++ {
		cfgs = append(cfgs, DefaultTownConfig())
	}
	small := DefaultTownConfig()
	small.GridW, small.GridH = 3, 3
	cfgs = append(cfgs, small)

	for i, cfg := range cfgs {
		town, err := GenerateTown(cfg, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		n := town.Net
		ix := n.index()
		if ix.cell != indexCell {
			t.Fatalf("town %d: cell %v, want the base pitch %v", i, ix.cell, float64(indexCell))
		}
		// Draw over the grid extent plus as much again on every side.
		lo := ix.min.Sub(geom.V(indexMargin, indexMargin))
		size := geom.V(float64(ix.nx)*ix.cell, float64(ix.ny)*ix.cell).Add(geom.V(2*indexMargin, 2*indexMargin))
		r := rng.New(uint64(i))
		var outside int
		for k := 0; k < points; k++ {
			p := geom.V(lo.X+r.Float64()*size.X, lo.Y+r.Float64()*size.Y)
			if k%4 == 0 {
				p = geom.V(math.Round(p.X*2)/2, math.Round(p.Y*2)/2)
			}
			if _, ok := ix.lookup(p); !ok {
				outside++
			}
			if !checkAgainstLinear(t, "town", n, p) {
				return
			}
		}
		if outside == 0 || outside == points {
			t.Fatalf("town %d: %d of %d points outside the grid; want both kinds", i, outside, points)
		}
	}
}

// TestIndexTiesAndEdges pins the cases the property test reaches only by
// chance: points equidistant from two streets, on and just inside pad
// edges, exactly on cell boundaries, and non-finite points — in the default
// town, and in one whose junction pads end a hair past cell boundaries.
func TestIndexTiesAndEdges(t *testing.T) {
	aligned := DefaultTownConfig()
	aligned.Spacing, aligned.LaneWidth = 22*indexCell, indexCell+1e-7
	for _, cfg := range []TownConfig{DefaultTownConfig(), aligned} {
		town, err := GenerateTown(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		n := town.Net
		half := n.RoadHalfWidth()
		in := half - 1e-8
		var pts []geom.Vec
		for _, node := range n.nodes {
			for _, d := range []geom.Vec{
				{X: 3, Y: 3}, {X: -5, Y: 5}, {X: half, Y: half}, {X: -half, Y: half},
				{X: -in, Y: -in}, {X: in, Y: -in}, {X: half, Y: 0}, {X: 0, Y: 10},
				{X: 7.25, Y: -7.25}, {X: indexCell, Y: indexCell},
			} {
				pts = append(pts, node.Pos.Add(d))
			}
		}
		ix := n.index()
		for k := 0; k <= ix.nx; k++ {
			pts = append(pts, ix.min.Add(geom.V(float64(k)*ix.cell, float64(k)*ix.cell*0.5)))
		}
		pts = append(pts, geom.V(math.NaN(), 0), geom.V(math.Inf(1), 3), geom.V(-1e300, 1e300))
		for _, p := range pts {
			if !checkAgainstLinear(t, "edge", n, p) {
				return
			}
		}
	}
}

// TestIndexConcurrentFirstQuery: goroutines racing to make a fresh
// network's first queries share one index build and all answer as the
// linear scan does (run under -race).
func TestIndexConcurrentFirstQuery(t *testing.T) {
	town, err := GenerateTown(DefaultTownConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	n := town.Net
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g))
			for k := 0; k < 500; k++ {
				p := geom.V(r.Range(-20, 290), r.Range(-20, 290))
				_, d, _ := n.NearestRoad(p)
				_, wd, _ := linearNearestRoad(n, p)
				if d != wd || n.InIntersection(p) != linearInPad(n, p, 3) || n.OnRoad(p) != linearOnRoad(n, p) {
					t.Errorf("goroutine %d: indexed and linear answers differ at %v", g, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexFollowsMutation: nodes and streets added after the first query
// show in the next one.
func TestIndexFollowsMutation(t *testing.T) {
	n := NewNetwork(3.5, 2)
	a := n.AddNode(geom.V(0, 0))
	b := n.AddNode(geom.V(100, 0))
	c := n.AddNode(geom.V(50, 30))
	n.AddEdge(a, b)
	p := geom.V(50, 60)
	if _, d, _ := n.NearestRoad(p); d != 60 {
		t.Fatalf("before mutation: dist %v, want 60", d)
	}
	// An edge between existing nodes, after a query.
	n.AddEdge(c, b)
	if _, _, ok := n.NearestRoad(p); !ok || !checkAgainstLinear(t, "new edge", n, p) {
		return
	}
	if n.InIntersection(geom.V(1, 1)) {
		t.Fatal("the origin is a junction before its third street exists")
	}
	d := n.AddNode(geom.V(50, 200))
	e := n.AddNode(geom.V(-50, 0))
	n.AddEdge(c, d)
	n.AddEdge(a, c)
	n.AddEdge(a, e)
	for _, q := range []geom.Vec{p, {X: 50, Y: 0}, {X: 1, Y: 1}, {X: 49, Y: 199}, {X: -49, Y: 3}, {X: 75, Y: 20}} {
		if !checkAgainstLinear(t, "mutated", n, q) {
			return
		}
	}
	if _, dist, _ := n.NearestRoad(p); dist != 0 {
		t.Errorf("after mutation: dist %v, want 0 on the new street", dist)
	}
	if !n.InIntersection(geom.V(1, 1)) {
		t.Error("new junction at the origin not found")
	}
}

// TestIndexLaneWidthChange: the pad lists were built for one lane width;
// after LaneWidth changes the pad checks still answer for the new one.
func TestIndexLaneWidthChange(t *testing.T) {
	town, err := GenerateTown(DefaultTownConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	n := town.Net
	n.OnRoad(geom.V(0, 0))
	n.LaneWidth = 9
	for _, node := range n.nodes {
		for _, q := range []geom.Vec{node.Pos.Add(geom.V(8.5, 8.5)), node.Pos.Add(geom.V(-8, 9.5))} {
			if !checkAgainstLinear(t, "wide", n, q) {
				return
			}
		}
	}
}

// TestIndexCoarsensLargeNetworks: a network too large for the base pitch
// within the build budget gets coarser cells and the same answers.
func TestIndexCoarsensLargeNetworks(t *testing.T) {
	cfg := DefaultTownConfig()
	cfg.GridW, cfg.GridH = 24, 24
	town, err := GenerateTown(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	n := town.Net
	if ix := n.index(); ix.cell <= indexCell {
		t.Fatalf("cell %v on a %d-street network; want coarser than %v", ix.cell, len(n.segs), float64(indexCell))
	}
	r := rng.New(4)
	for k := 0; k < 20_000; k++ {
		p := geom.V(r.Range(-100, 2200), r.Range(-100, 2200))
		if !checkAgainstLinear(t, "large", n, p) {
			return
		}
	}
}

func TestIndexEmptyNetwork(t *testing.T) {
	n := NewNetwork(3.5, 2)
	if n.OnRoad(geom.V(0, 0)) || n.InIntersection(geom.V(0, 0)) {
		t.Error("empty network has pavement")
	}
	n.AddNode(geom.V(5, 5))
	if _, _, ok := n.NearestRoad(geom.V(5, 5)); ok || n.InIntersection(geom.V(5, 5)) {
		t.Error("a lone node has a street or a junction")
	}
}

// linearRaycastBuildings is RaycastBuildings without the slab test.
func linearRaycastBuildings(t *Town, ray geom.Ray, maxDist float64) (dist float64, b Building, ok bool) {
	best := maxDist
	for _, bd := range t.Buildings {
		for _, s := range aabbEdges(bd.Box) {
			if tHit, hit := ray.IntersectSegment(s); hit && tHit < best {
				best, b, ok = tHit, bd, true
			}
		}
	}
	if !ok {
		return 0, Building{}, false
	}
	return best, b, true
}

// TestRaycastBuildingsMatchesLinearScan: the slab test only skips
// buildings, so every ray — from inside, outside and on walls, along the
// axes and grazing corners — hits what a test of every wall hits, to the
// bit.
func TestRaycastBuildingsMatchesLinearScan(t *testing.T) {
	r := rng.New(7)
	for seed := uint64(1); seed <= 5; seed++ {
		town, err := GenerateTown(DefaultTownConfig(), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var origins []geom.Vec
		for _, b := range town.Buildings {
			// Corners and wall midpoints, where rays graze.
			origins = append(origins, b.Box.Min, b.Box.Max, geom.V(b.Box.Min.X, b.Box.Max.Y), b.Box.Center(),
				geom.V(b.Box.Min.X, b.Box.Center().Y))
		}
		for k := 0; k < 20_000; k++ {
			o := geom.V(r.Range(-60, 330), r.Range(-60, 330))
			if k%4 == 0 {
				o = geom.V(math.Round(o.X*2)/2, math.Round(o.Y*2)/2)
			}
			origins = append(origins, o)
		}
		for k, o := range origins {
			var dir geom.Vec
			switch k % 3 {
			case 0:
				dir = geom.FromAngle(float64(r.Intn(8)) * math.Pi / 4)
			case 1:
				// Toward a building corner.
				b := town.Buildings[r.Intn(len(town.Buildings))].Box
				dir = geom.V(b.Max.X, b.Min.Y).Sub(o)
			default:
				dir = geom.FromAngle(r.Range(-math.Pi, math.Pi))
			}
			ray := geom.NewRay(o, dir)
			for _, maxDist := range []float64{5, 120, math.Inf(1)} {
				d, b, ok := town.RaycastBuildings(ray, maxDist)
				wd, wb, wok := linearRaycastBuildings(town, ray, maxDist)
				if math.Float64bits(d) != math.Float64bits(wd) || b != wb || ok != wok {
					t.Fatalf("town %d: RaycastBuildings(%v, %v) = %v %v %v, every wall %v %v %v", seed, ray, maxDist, d, b, ok, wd, wb, wok)
				}
			}
		}
	}
}
