package vip

import "wow/internal/metrics"

// The stack's counters: one index per name, a cell each in Stack.Stats
// (Counters.New), counted with Stats.Add.
const (
	cIPOut = iota
	cIPIn
	cIPMisdelivered
	cIPUnknownProto
	cICMPSent
	cICMPReplied
	cICMPTimeout
	cUDPUnbound
	cTCPDialed
	cTCPAccepted
	cTCPNoConn
	cTCPDataOut
	cTCPRTO
	cTCPFastRetransmit
	cTCPOutOfOrder
	cTCPKeepaliveProbe
	cTCPAborted
	cTCPClosed
	numCounters
)

// Counters is the stack's counter family.
var Counters = metrics.NewFamily(counterNames[:]...)

var counterNames = [numCounters]string{
	cIPOut:             "ip.out",
	cIPIn:              "ip.in",
	cIPMisdelivered:    "ip.misdelivered",
	cIPUnknownProto:    "ip.unknown_proto",
	cICMPSent:          "icmp.sent",
	cICMPReplied:       "icmp.replied",
	cICMPTimeout:       "icmp.timeout",
	cUDPUnbound:        "udp.unbound",
	cTCPDialed:         "tcp.dialed",
	cTCPAccepted:       "tcp.accepted",
	cTCPNoConn:         "tcp.no_conn",
	cTCPDataOut:        "tcp.data_out",
	cTCPRTO:            "tcp.rto",
	cTCPFastRetransmit: "tcp.fast_retransmit",
	cTCPOutOfOrder:     "tcp.out_of_order",
	cTCPKeepaliveProbe: "tcp.keepalive_probe",
	cTCPAborted:        "tcp.aborted",
	cTCPClosed:         "tcp.closed",
}
