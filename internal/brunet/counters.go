package brunet

import "wow/internal/metrics"

// The node's counters: one index per name, a cell each in Node.Stats
// (Counters.New), counted with Stats.Add. The conn.<role> and
// conn.dropped.<reason> cells come last, one run each indexed by ConnType
// and dropReason.
const (
	cRouteForwarded = iota
	cRouteDelivered
	cRouteHopsExceeded
	cRouteDeadLetter
	cRecvNoProto
	cRecvUnknownOverlay
	cRecvUnknown
	cForwardNoChild

	cCTMSent
	cCTMReceived
	cCTMReplied
	cStatusSent
	cStatusDiscovered
	cNearTrimmed
	cShortcutCTM
	cShortcutIdleDropped

	cLinkAttempts
	cLinkRequests
	cLinkSuccess
	cLinkRaceWon
	cLinkRaceYield
	cLinkGiveup
	cLinkGiveupTimeout
	cLinkGiveupReject
	cLinkURIExhausted
	cLinkURIExhaustedTimeout
	cLinkURIExhaustedBusy
	cLinkURIExhaustedReject
	cURILearned

	cConnCreated
	cConnStreamClosed
	cConnEPRoamed

	cPingSent
	cPingResent
	cPingDead
	cPingStale
	cPingFastProbe
	cLivenessFalseSuspect
	cLivenessPrematureTimeout
	cLivenessDetectMs
	cLivenessSuspectConfirmed
	cCloseForwarded

	cHandoffSent
	cHandoffReceived
	cHandoffLinked
	cRelinkAttempts
	cRelinkSuccess
	cRelinkGiveup

	cTunnelAttempts
	cTunnelEstablished
	cTunnelUpgraded
	cTunnelUpgradeProbes
	cTunnelReprobe
	cTunnelLinkGiveup
	cTunnelNoCandidate
	cTunnelNoRelay
	cTunnelNoReturn
	cTunnelRecruit
	cTunnelRecruitFailed
	cTunnelRelayed
	cTunnelRelayNoRoute
	cTunnelRelayLearned
	cTunnelRelayLost
	cTunnelRelayReselected
	cTunnelRelayBounced
	cTunnelRelaySuspected
	cTunnelRelayReaped
	cTunnelRelayExhausted
	cTunnelRelayFailover
	cTunnelRelaySwitched

	cConnRole                               // numConnTypes cells, by ConnType
	cConnDropped = cConnRole + numConnTypes // numDropReasons cells, by dropReason
	numCounters  = cConnDropped + numDropReasons
)

// Counters is the node's counter family.
var Counters = metrics.NewFamily(counterNames[:]...)

var counterNames = [numCounters]string{
	cRouteForwarded:     "route.forwarded",
	cRouteDelivered:     "route.delivered",
	cRouteHopsExceeded:  "route.hops_exceeded",
	cRouteDeadLetter:    "route.dead_letter",
	cRecvNoProto:        "recv.noproto",
	cRecvUnknownOverlay: "recv.unknown_overlay",
	cRecvUnknown:        "recv.unknown",
	cForwardNoChild:     "forward.nochild",

	cCTMSent:             "ctm.sent",
	cCTMReceived:         "ctm.received",
	cCTMReplied:          "ctm.replied",
	cStatusSent:          "status.sent",
	cStatusDiscovered:    "status.discovered",
	cNearTrimmed:         "near.trimmed",
	cShortcutCTM:         "shortcut.ctm",
	cShortcutIdleDropped: "shortcut.idle_dropped",

	cLinkAttempts:            "link.attempts",
	cLinkRequests:            "link.requests",
	cLinkSuccess:             "link.success",
	cLinkRaceWon:             "link.race_won",
	cLinkRaceYield:           "link.race_yield",
	cLinkGiveup:              "link.giveup",
	cLinkGiveupTimeout:       "link.giveup.timeout",
	cLinkGiveupReject:        "link.giveup.reject",
	cLinkURIExhausted:        "link.uri_exhausted",
	cLinkURIExhaustedTimeout: "link.uri_exhausted.timeout",
	cLinkURIExhaustedBusy:    "link.uri_exhausted.busy",
	cLinkURIExhaustedReject:  "link.uri_exhausted.reject",
	cURILearned:              "uri.learned",

	cConnCreated:      "conn.created",
	cConnStreamClosed: "conn.stream_closed",
	cConnEPRoamed:     "conn.ep_roamed",

	cPingSent:                 "ping.sent",
	cPingResent:               "ping.resent",
	cPingDead:                 "ping.dead",
	cPingStale:                "ping.stale",
	cPingFastProbe:            "ping.fast_probe",
	cLivenessFalseSuspect:     "liveness.false_suspect",
	cLivenessPrematureTimeout: "liveness.premature_timeout",
	cLivenessDetectMs:         "liveness.detect_ms",
	cLivenessSuspectConfirmed: "liveness.suspect_confirmed",
	cCloseForwarded:           "close.forwarded",

	cHandoffSent:     "handoff.sent",
	cHandoffReceived: "handoff.received",
	cHandoffLinked:   "handoff.linked",
	cRelinkAttempts:  "relink.attempts",
	cRelinkSuccess:   "relink.success",
	cRelinkGiveup:    "relink.giveup",

	cTunnelAttempts:        "tunnel.attempts",
	cTunnelEstablished:     "tunnel.established",
	cTunnelUpgraded:        "tunnel.upgraded",
	cTunnelUpgradeProbes:   "tunnel.upgrade_probes",
	cTunnelReprobe:         "tunnel.reprobe",
	cTunnelLinkGiveup:      "tunnel.link_giveup",
	cTunnelNoCandidate:     "tunnel.nocandidate",
	cTunnelNoRelay:         "tunnel.norelay",
	cTunnelNoReturn:        "tunnel.noreturn",
	cTunnelRecruit:         "tunnel.recruit",
	cTunnelRecruitFailed:   "tunnel.recruit_failed",
	cTunnelRelayed:         "tunnel.relayed",
	cTunnelRelayNoRoute:    "tunnel.relay_noroute",
	cTunnelRelayLearned:    "tunnel.relay_learned",
	cTunnelRelayLost:       "tunnel.relay_lost",
	cTunnelRelayReselected: "tunnel.relay_reselected",
	cTunnelRelayBounced:    "tunnel.relay_bounced",
	cTunnelRelaySuspected:  "tunnel.relay_suspected",
	cTunnelRelayReaped:     "tunnel.relay_reaped",
	cTunnelRelayExhausted:  "tunnel.relay_exhausted",
	cTunnelRelayFailover:   "tunnel.relay_failover",
	cTunnelRelaySwitched:   "tunnel.relay_switched",

	cConnRole + int(Leaf):           "conn.leaf",
	cConnRole + int(StructuredNear): "conn.structured.near",
	cConnRole + int(StructuredFar):  "conn.structured.far",
	cConnRole + int(Shortcut):       "conn.shortcut",
	cConnRole + int(Relay):          "conn.relay",

	cConnDropped + int(dropTimeout):   "conn.dropped.timeout",
	cConnDropped + int(dropStream):    "conn.dropped.stream",
	cConnDropped + int(dropPeerClose): "conn.dropped.peer_close",
	cConnDropped + int(dropPeerLeave): "conn.dropped.peer_leave",
	cConnDropped + int(dropLeave):     "conn.dropped.leave",
	cConnDropped + int(dropTrim):      "conn.dropped.trim",
	cConnDropped + int(dropIdle):      "conn.dropped.idle",
	cConnDropped + int(dropNoRelay):   "conn.dropped.norelay",
}
