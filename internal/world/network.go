// Package world models the urban environment the AVFI simulator drives in:
// a road network of intersections and street segments with lanes, curbs and
// sidewalks, procedurally generated towns with buildings, spawn points, and
// the route planner and lane-geometry queries that the autopilot, the
// violation detectors, and the renderer are built on.
//
// It is the Go stand-in for CARLA's town assets (the paper's "inbuilt
// library of urban layouts, buildings, pedestrians, vehicles"). Geometry is
// 2D; the renderer extrudes buildings by their Height for the camera view.
//
// Conventions: right-hand traffic; each street has one lane per direction,
// LaneWidth wide, so pavement spans ±LaneWidth around the street centerline.
// A driving lane's centerline is offset LaneWidth/2 to the right of travel.
package world

import (
	"fmt"
	"math"
	"sync"

	"github.com/avfi/avfi/internal/geom"
)

// NodeID identifies an intersection.
type NodeID int

// Node is an intersection of one or more streets.
type Node struct {
	ID  NodeID
	Pos geom.Vec
}

// Network is the road graph: intersections plus undirected street segments.
//
// NearestRoad, OnRoad and InIntersection answer from a uniform grid index
// over the streets and junction pads, so a query costs a short list of
// nearby streets rather than the whole network. The index is built once,
// by the first of those queries (never by construction), and it changes
// no answer: every result is bit-identical to a scan of all streets in
// segment order. Queries are safe for concurrent use. AddEdge drops the
// index, so the next query sees the new street and rebuilds it (a node
// changes no answer until a street reaches it); like any mutation, AddNode
// and AddEdge must not run concurrently with queries. Changing LaneWidth
// after a query sends the junction-pad checks back to a full scan, with the
// same answers.
type Network struct {
	// LaneWidth is the width of one driving lane in meters.
	LaneWidth float64
	// SidewalkWidth is the width of the pedestrian strip beyond each curb.
	SidewalkWidth float64

	nodes []Node
	// adj is indexed by NodeID (ids are dense): InIntersection reads it for
	// every ground pixel the renderer classifies.
	adj [][]NodeID
	// segs caches one geom.Segment per undirected edge for geometric
	// queries, deduplicated with A < B.
	segs []edgeSeg

	// idx is the grid index behind the geometric queries; see index.
	idx     *roadIndex
	idxOnce sync.Once
}

type edgeSeg struct {
	a, b NodeID
	seg  geom.Segment
}

// NewNetwork constructs an empty network with the given lane geometry.
func NewNetwork(laneWidth, sidewalkWidth float64) *Network {
	return &Network{
		LaneWidth:     laneWidth,
		SidewalkWidth: sidewalkWidth,
	}
}

// AddNode appends an intersection and returns its ID.
func (n *Network) AddNode(pos geom.Vec) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Pos: pos})
	n.adj = append(n.adj, nil)
	return id
}

// AddEdge connects two intersections with a street. Adding an existing edge
// or a self-loop is a no-op.
func (n *Network) AddEdge(a, b NodeID) {
	if a == b {
		return
	}
	for _, x := range n.adj[a] {
		if x == b {
			return
		}
	}
	n.adj[a] = append(n.adj[a], b)
	n.adj[b] = append(n.adj[b], a)
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	n.segs = append(n.segs, edgeSeg{a: lo, b: hi, seg: geom.Seg(n.nodes[lo].Pos, n.nodes[hi].Pos)})
	n.idx, n.idxOnce = nil, sync.Once{} // the next query rebuilds it
}

// index returns the grid index, building it on first use.
func (n *Network) index() *roadIndex {
	n.idxOnce.Do(func() { n.idx = buildRoadIndex(n) })
	return n.idx
}

// NodeCount returns the number of intersections.
func (n *Network) NodeCount() int { return len(n.nodes) }

// EdgeCount returns the number of undirected street segments.
func (n *Network) EdgeCount() int { return len(n.segs) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Neighbors returns the intersections adjacent to id.
func (n *Network) Neighbors(id NodeID) []NodeID { return n.adj[id] }

// Segments returns the street centerline segments (shared slice contents;
// callers must not mutate).
func (n *Network) Segments() []geom.Segment {
	out := make([]geom.Segment, len(n.segs))
	for i, e := range n.segs {
		out[i] = e.seg
	}
	return out
}

// RoadHalfWidth returns the half-width of the paved road (two lanes).
func (n *Network) RoadHalfWidth() float64 { return n.LaneWidth }

// NearestRoad returns the distance from p to the nearest street centerline
// and that street's segment; of equidistant streets, the first added. ok is
// false for an empty network.
func (n *Network) NearestRoad(p geom.Vec) (seg geom.Segment, dist float64, ok bool) {
	if len(n.segs) == 0 {
		return geom.Segment{}, 0, false
	}
	best := math.MaxFloat64
	for _, i := range n.index().segsNear(p) {
		s := &n.segs[i].seg
		if d := s.Dist(p); d < best {
			best = d
			seg = *s
		}
	}
	return seg, best, true
}

// OnRoad reports whether p lies on pavement: within RoadHalfWidth of a
// street centerline or within an intersection square.
func (n *Network) OnRoad(p geom.Vec) bool {
	_, d, ok := n.NearestRoad(p)
	if !ok {
		return false
	}
	if d <= n.RoadHalfWidth() {
		return true
	}
	// Intersection pads are squares slightly larger than the road width so
	// corner cutting across a junction doesn't read as off-road.
	return n.inPad(p, 1)
}

// InIntersection reports whether p lies within the junction square of any
// intersection (used to suppress lane-marking rendering and lane-violation
// checks inside junctions, where there are no markings). Straight-through
// and dead-end nodes do not form a junction box.
func (n *Network) InIntersection(p geom.Vec) bool { return n.inPad(p, 3) }

// inPad reports whether p lies within the ±RoadHalfWidth square of an
// intersection with at least minDegree streets.
func (n *Network) inPad(p geom.Vec, minDegree int) bool {
	half := n.RoadHalfWidth()
	for _, id := range n.index().padsNear(p, half) {
		if len(n.adj[id]) < minDegree {
			continue
		}
		dp := p.Sub(n.nodes[id].Pos)
		if math.Abs(dp.X) <= half && math.Abs(dp.Y) <= half {
			return true
		}
	}
	return false
}

// NearNode reports whether p is within radius of any intersection; lane
// markings are ambiguous there, so lane-violation checks are suppressed.
func (n *Network) NearNode(p geom.Vec, radius float64) bool {
	for _, node := range n.nodes {
		if len(n.adj[node.ID]) == 0 {
			continue
		}
		if p.DistSq(node.Pos) <= radius*radius {
			return true
		}
	}
	return false
}

// AlignedRoadLateral returns the signed lateral offset of p from the
// centerline of the nearest street whose direction is within 45 degrees of
// the travel heading (either way along the street). Positive = left of the
// travel direction, so a correctly driving vehicle sits at about
// -LaneWidth/2 and a positive value means it has crossed the center line.
// ok is false when no aligned street is within the pavement width — the
// vehicle is crossing a perpendicular street or is off-road, cases the
// curb/intersection checks own.
func (n *Network) AlignedRoadLateral(p geom.Vec, heading float64) (lat float64, ok bool) {
	best := n.RoadHalfWidth()
	for _, e := range n.segs {
		d := e.seg.Dist(p)
		if d > best {
			continue
		}
		dir := e.seg.Dir()
		diff := geom.AngleDiff(dir.Angle(), heading)
		if math.Abs(diff) > math.Pi/2 {
			dir = dir.Scale(-1)
			diff = geom.AngleDiff(dir.Angle(), heading)
		}
		if math.Abs(diff) > math.Pi/4 {
			continue
		}
		best = d
		lat = dir.Cross(p.Sub(e.seg.A))
		ok = true
	}
	return lat, ok
}

// Validate checks structural invariants: every edge endpoint exists and the
// graph is connected (so every mission is plannable).
func (n *Network) Validate() error {
	if len(n.nodes) == 0 {
		return fmt.Errorf("world: empty network")
	}
	for _, e := range n.segs {
		if int(e.a) >= len(n.nodes) || int(e.b) >= len(n.nodes) {
			return fmt.Errorf("world: edge (%d,%d) references missing node", e.a, e.b)
		}
	}
	// BFS connectivity.
	seen := make([]bool, len(n.nodes))
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range n.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				count++
				queue = append(queue, nb)
			}
		}
	}
	if count != len(n.nodes) {
		return fmt.Errorf("world: network disconnected (%d of %d reachable)", count, len(n.nodes))
	}
	return nil
}
