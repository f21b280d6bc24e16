package world

import (
	"math"

	"github.com/avfi/avfi/internal/geom"
)

// Grid index geometry. The renderer asks for the nearest street once per
// ground pixel, so NearestRoad and InIntersection look up a uniform grid
// instead of scanning the whole network.
const (
	// indexCell is the grid pitch in meters. Each cell keeps the streets
	// that can be nearest to some point in it: near a street only that
	// street, within 2·halfDiag of a junction's other arms.
	indexCell = 4.0
	// indexMargin extends the grid beyond the outermost intersections;
	// points outside it fall back to the full scan.
	indexMargin = 64.0
	// indexMaxCells bounds the grid's size and indexMaxPairs its build's
	// cells × (segments + pads) distance evaluations. A network too large for
	// either at indexCell gets coarser cells: longer lists, the same
	// answers.
	indexMaxCells = 1 << 16
	indexMaxPairs = 1 << 22
	// indexEps widens every inclusion test so floating-point rounding in
	// the distances and in the cell lookup can never drop a candidate.
	indexEps = 1e-6
)

// roadIndex is a uniform grid over a Network's intersections, stored as
// two compressed lists per cell.
type roadIndex struct {
	min    geom.Vec
	cell   float64
	inv    float64 // 1/cell
	nx, ny int
	// segStart[c]:segStart[c+1] slices segItems to cell c's candidate
	// segments, ascending in Network.segs order. A segment is listed iff
	// its lower distance bound over the cell, d(center, s) − halfDiag, is
	// within indexEps of the least upper bound min d(center, s') +
	// halfDiag. Every point's true nearest segment, and every earlier one
	// tied with it, is therefore listed, and a scan of the list in order
	// returns what a scan of all segments returns.
	segStart []int32
	segItems []int32
	// padStart and padItems list, per cell, the intersections with at
	// least one street whose pad square (±half) overlaps the cell.
	padStart []int32
	padItems []int32
	// half is the RoadHalfWidth the pad lists were built for.
	half float64
	// allSegs and allPads answer points outside the grid.
	allSegs, allPads []int32
}

func buildRoadIndex(n *Network) *roadIndex {
	ix := &roadIndex{half: n.RoadHalfWidth(), cell: indexCell}
	for i := range n.segs {
		ix.allSegs = append(ix.allSegs, int32(i))
	}
	for id, nb := range n.adj {
		if len(nb) > 0 {
			ix.allPads = append(ix.allPads, int32(id))
		}
	}
	if len(n.nodes) == 0 {
		return ix
	}
	lo, hi := n.nodes[0].Pos, n.nodes[0].Pos
	for _, nd := range n.nodes {
		lo = geom.V(math.Min(lo.X, nd.Pos.X), math.Min(lo.Y, nd.Pos.Y))
		hi = geom.V(math.Max(hi.X, nd.Pos.X), math.Max(hi.Y, nd.Pos.Y))
	}
	ix.min = lo.Sub(geom.V(indexMargin, indexMargin))
	span := hi.Sub(lo).Add(geom.V(2*indexMargin, 2*indexMargin))
	if !span.IsFinite() {
		return ix
	}
	for {
		cells := span.X / ix.cell * span.Y / ix.cell
		if cells <= indexMaxCells && cells*float64(len(n.segs)+len(ix.allPads)) <= indexMaxPairs {
			break
		}
		ix.cell *= 2
	}
	ix.inv = 1 / ix.cell
	ix.nx = int(math.Ceil(span.X / ix.cell))
	ix.ny = int(math.Ceil(span.Y / ix.cell))

	halfDiag := ix.cell * math.Sqrt2 / 2
	padReach := ix.half + ix.cell/2 + indexEps
	cells := ix.nx * ix.ny
	ix.segStart = make([]int32, 1, cells+1)
	ix.padStart = make([]int32, 1, cells+1)
	d2 := make([]float64, len(n.segs))
	for cy := 0; cy < ix.ny; cy++ {
		for cx := 0; cx < ix.nx; cx++ {
			c := geom.V(ix.min.X+(float64(cx)+0.5)*ix.cell, ix.min.Y+(float64(cy)+0.5)*ix.cell)
			least := math.MaxFloat64
			for i, e := range n.segs {
				_, q := e.seg.Project(c)
				d2[i] = q.DistSq(c)
				least = math.Min(least, d2[i])
			}
			reach := math.Sqrt(least) + 2*halfDiag + indexEps
			for i := range n.segs {
				if d2[i] <= reach*reach {
					ix.segItems = append(ix.segItems, int32(i))
				}
			}
			ix.segStart = append(ix.segStart, int32(len(ix.segItems)))
			for _, id := range ix.allPads {
				d := n.nodes[id].Pos.Sub(c)
				if math.Abs(d.X) <= padReach && math.Abs(d.Y) <= padReach {
					ix.padItems = append(ix.padItems, id)
				}
			}
			ix.padStart = append(ix.padStart, int32(len(ix.padItems)))
		}
	}
	return ix
}

// lookup returns the cell holding p, or ok false outside the grid (and for
// NaN coordinates).
func (ix *roadIndex) lookup(p geom.Vec) (c int, ok bool) {
	fx := (p.X - ix.min.X) * ix.inv
	fy := (p.Y - ix.min.Y) * ix.inv
	if !(fx >= 0 && fy >= 0 && fx < float64(ix.nx) && fy < float64(ix.ny)) {
		return 0, false
	}
	return int(fy)*ix.nx + int(fx), true
}

// segsNear returns the indexes into Network.segs that can be nearest to p,
// in segment order.
func (ix *roadIndex) segsNear(p geom.Vec) []int32 {
	c, ok := ix.lookup(p)
	if !ok {
		return ix.allSegs
	}
	return ix.segItems[ix.segStart[c]:ix.segStart[c+1]]
}

// padsNear returns the intersections with streets whose pad square of
// half-width half can contain p.
func (ix *roadIndex) padsNear(p geom.Vec, half float64) []int32 {
	c, ok := ix.lookup(p)
	if !ok || half != ix.half {
		return ix.allPads
	}
	return ix.padItems[ix.padStart[c]:ix.padStart[c+1]]
}
