// Package safety implements an independent safety monitor for the driving
// stack: an Automatic Emergency Braking (AEB) module that watches the
// forward LIDAR cone and overrides the agent's control when a collision is
// imminent.
//
// AEB extends the paper's architecture in the direction its conclusion
// points ("the need to explore the real-time nature and constraints
// associated with the AV"): it is a mitigation whose effectiveness — and
// whose own vulnerability to sensor faults — AVFI can quantify. The
// ablation campaign (avfi ablate -sweep aeb) measures both: AEB
// recovers most collisions the camera faults cause, and LIDAR faults
// (dropout, ghost echoes) disable or pervert it.
package safety

import (
	"math"

	"github.com/avfi/avfi/internal/physics"
)

// AEB is a last-resort brake controller. The zero value is disabled;
// construct with NewAEB.
type AEB struct {
	// ConeHalfAngle is the half-angle of the forward watch cone, radians.
	ConeHalfAngle float64
	// Margin is added to the physical stopping distance, meters.
	Margin float64
	// MinTrigger is the range below which AEB always brakes, regardless of
	// speed (covers sensor latency at crawl speeds).
	MinTrigger float64
	// Params are the vehicle constants for the stopping-distance model.
	Params physics.VehicleParams
}

// NewAEB returns the default emergency-braking configuration.
func NewAEB(params physics.VehicleParams) *AEB {
	return &AEB{
		ConeHalfAngle: 25 * math.Pi / 180,
		Margin:        4.5,
		MinTrigger:    3.0,
		Params:        params,
	}
}

// Intervention describes an AEB decision for one frame.
type Intervention struct {
	// Triggered reports whether AEB overrode the control.
	Triggered bool
	// MinForwardRange is the smallest range seen in the watch cone.
	MinForwardRange float64
}

// Filter inspects the LIDAR scan (beam 0 = straight ahead, beams spread
// counterclockwise over 2*pi) and overrides the control with a full brake
// when the closest forward return is inside the stopping envelope for the
// measured speed. A nil or empty scan leaves the control untouched — AEB
// fails silent on total sensor loss, exactly the failure mode the LIDAR
// fault campaign measures.
func (a *AEB) Filter(ctl physics.Control, lidar []float64, speed float64) (physics.Control, Intervention) {
	iv := Intervention{MinForwardRange: math.Inf(1)}
	if len(lidar) == 0 {
		return ctl, iv
	}
	n := len(lidar)
	for i, rng := range lidar {
		// Beam angle relative to heading.
		angle := 2 * math.Pi * float64(i) / float64(n)
		if angle > math.Pi {
			angle -= 2 * math.Pi
		}
		if math.Abs(angle) > a.ConeHalfAngle {
			continue
		}
		if rng < iv.MinForwardRange {
			iv.MinForwardRange = rng
		}
	}
	if math.IsInf(iv.MinForwardRange, 1) {
		return ctl, iv
	}
	trigger := physics.StoppingDistance(speed, a.Params) + a.Margin
	if trigger < a.MinTrigger {
		trigger = a.MinTrigger
	}
	if iv.MinForwardRange <= trigger {
		iv.Triggered = true
		ctl.Throttle = 0
		ctl.Brake = 1
	}
	return ctl, iv
}
