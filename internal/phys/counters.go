package phys

import "wow/internal/metrics"

// counter indexes the network's counters: a cell each in every shard's
// state, summed by TotalStats. The losses are the reasons a drop passes.
type counter uint8

const (
	cDelivered counter = iota
	cBoundaryIn
	cBoundaryOut
	cLostWire
	cLostNoRoute
	cLostBoundary
	cLostHostDown
	cLostNoPort
	cLostOverload
	cLostFault
	numCounters
)

// Counters is the network's counter family.
var Counters = metrics.NewFamily(counterNames[:]...)

var counterNames = [numCounters]string{
	cDelivered:    "delivered",
	cBoundaryIn:   "boundary.in",
	cBoundaryOut:  "boundary.out",
	cLostWire:     "lost.wire",
	cLostNoRoute:  "lost.noroute",
	cLostBoundary: "lost.boundary",
	cLostHostDown: "lost.hostdown",
	cLostNoPort:   "lost.noport",
	cLostOverload: "lost.overload",
	cLostFault:    "lost.fault",
}
