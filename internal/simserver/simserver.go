// Package simserver runs the world-simulator side of the CARLA-style
// client/server split: it owns a sim.Episode and speaks the proto protocol
// over any transport.Conn — each frame it ships the sensor payload, waits
// for the agent's control, and steps the world.
//
// The server is deliberately fault-free: all of AVFI's injectors instrument
// the client side (the ADA process), matching the paper's deployment where
// AVFI hooks the CARLA *client*.
package simserver

import (
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
)

// obsFrameInto fills a reused scratch frame with one observation's wire
// form, appending pixels and lidar into the scratch's existing capacity —
// the allocation-free shape the session frame loop needs.
func obsFrameInto(f *proto.SensorFrame, obs sim.Observation) {
	f.Frame = uint32(obs.Frame)
	f.TimeSec = obs.TimeSec
	f.ImageW = uint16(obs.Image.W)
	f.ImageH = uint16(obs.Image.H)
	f.Pixels = obs.Image.AppendBytes(f.Pixels[:0])
	f.Speed = obs.Speed
	f.GPSX = obs.GPS.X
	f.GPSY = obs.GPS.Y
	f.Lidar = append(f.Lidar[:0], obs.Lidar...)
	f.Command = uint8(obs.Command)
	f.Done = obs.Done
	f.Status = uint8(obs.Status)
}
