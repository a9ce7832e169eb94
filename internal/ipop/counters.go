package ipop

import "wow/internal/metrics"

// The endpoint's counters: one index per name, a cell each in Node.Stats
// (Counters.New), counted with Stats.Add.
const (
	cTunnelOut = iota
	cTunnelIn
	cTunnelDroppedDown
	cTunnelGarbage
	cTunnelMisrouted
	numCounters
)

// Counters is the endpoint's counter family.
var Counters = metrics.NewFamily(counterNames[:]...)

var counterNames = [numCounters]string{
	cTunnelOut:         "tunnel.out",
	cTunnelIn:          "tunnel.in",
	cTunnelDroppedDown: "tunnel.dropped_down",
	cTunnelGarbage:     "tunnel.garbage",
	cTunnelMisrouted:   "tunnel.misrouted",
}
