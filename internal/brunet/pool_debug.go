//go:build packetdebug

package brunet

import "fmt"

// Debug shard pool, in the manner of internal/phys/pool_debug.go: keeping a
// pooled *OverlayPacket or *tunnelFrame past the handler it was delivered to
// is a bug — the pool hands it to the next sender. Here nothing is reused: a
// release poisons the object and remembers the site, a second release panics
// naming both sites, and a poisoned object entering a handler (handleWire,
// routePacket, handleTunnelFrame) panics there. A release on the wrong shard
// is not something this pool can see: a node takes its pool from its host's
// Simulator once, in NewNode, and neither changes afterwards. Two goroutines
// on one list is the race detector's to report; CI runs this build under
// -race.

const poolDebug = true

// poolMark records where a pooled object was released; empty while live.
type poolMark struct {
	released string
}

const poisonPayload = "brunet: use of released pooled object"

func (n *Node) acquirePkt() *OverlayPacket { return &OverlayPacket{} }

func (n *Node) releasePkt(p *OverlayPacket, where string) {
	if p.mark.released != "" {
		panic(fmt.Sprintf("brunet: double release of overlay packet in %s (first released in %s)", where, p.mark.released))
	}
	if !p.pooled {
		return
	}
	p.mark.released = where
	p.pooled = false
	p.Src, p.Dst = Addr{}, Addr{}
	p.Size, p.Hops, p.MaxHops = -1, -1, -1
	p.Payload = poisonPayload
	p.app = AppData{}
	p.Trace, p.TraceStart = 0, 0
}

func (n *Node) acquireFrame() *tunnelFrame { return &tunnelFrame{} }

func (n *Node) releaseFrame(f *tunnelFrame, where string) {
	if f.mark.released != "" {
		panic(fmt.Sprintf("brunet: double release of tunnel frame in %s (first released in %s)", where, f.mark.released))
	}
	*f = tunnelFrame{Size: -1, Inner: poisonPayload, mark: poolMark{released: where}}
}

func (p *OverlayPacket) live(where string) {
	if p.mark.released != "" {
		panic(fmt.Sprintf("brunet: use of released overlay packet in %s (released in %s)", where, p.mark.released))
	}
}

func (f *tunnelFrame) live(where string) {
	if f.mark.released != "" {
		panic(fmt.Sprintf("brunet: use of released tunnel frame in %s (released in %s)", where, f.mark.released))
	}
}
