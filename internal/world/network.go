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
// and that street's segment. ok is false for an empty network.
func (n *Network) NearestRoad(p geom.Vec) (seg geom.Segment, dist float64, ok bool) {
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
	for _, node := range n.nodes {
		if len(n.adj[node.ID]) == 0 {
			continue
		}
		dp := p.Sub(node.Pos)
		if math.Abs(dp.X) <= n.RoadHalfWidth() && math.Abs(dp.Y) <= n.RoadHalfWidth() {
			return true
		}
	}
	return false
}

// InIntersection reports whether p lies within the junction square of any
// intersection (used to suppress lane-marking rendering and lane-violation
// checks inside junctions, where there are no markings).
func (n *Network) InIntersection(p geom.Vec) bool {
	for _, node := range n.nodes {
		if len(n.adj[node.ID]) < 3 {
			// Straight-through or dead-end nodes do not form a junction box.
			continue
		}
		dp := p.Sub(node.Pos)
		if math.Abs(dp.X) <= n.RoadHalfWidth() && math.Abs(dp.Y) <= n.RoadHalfWidth() {
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
