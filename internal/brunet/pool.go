//go:build !packetdebug

package brunet

// The production side of the shard pool (shardPool in node.go); -tags
// packetdebug swaps in pool_debug.go, which reuses nothing and panics on
// pool misuse.

// poolDebug reports whether the packetdebug pool is compiled in; the
// allocation guards and pool-length checks skip their assertions under it.
const poolDebug = false

// poolMark is the debug pool's per-object state; empty here.
type poolMark struct{}

// acquirePkt takes a packet from the shard's list, or allocates one.
func (n *Node) acquirePkt() *OverlayPacket {
	p := n.pool.pkts
	if p == nil {
		return &OverlayPacket{}
	}
	n.pool.pkts = p.nextFree
	p.nextFree = nil
	return p
}

// releasePkt retires a pooled packet at its routing terminal; where names
// the terminal for the debug pool. Unpooled packets (protocol messages,
// externally built packets) pass through untouched — their lifetime belongs
// to the garbage collector.
func (n *Node) releasePkt(p *OverlayPacket, where string) {
	if !p.pooled {
		return
	}
	p.pooled = false
	p.Payload = nil
	p.app = AppData{}
	p.Trace, p.TraceStart = 0, 0
	p.nextFree = n.pool.pkts
	n.pool.pkts = p
}

// acquireFrame takes a blank tunnel frame from the shard's list, or
// allocates one.
func (n *Node) acquireFrame() *tunnelFrame {
	f := n.pool.frames
	if f == nil {
		return &tunnelFrame{}
	}
	n.pool.frames = f.nextFree
	f.nextFree = nil
	return f
}

// releaseFrame retires a frame at its tunnel endpoint, blank, so the list
// pins neither the message it carried nor a URI. A frame a stream has
// carried (unpool) is blanked and left to the garbage collector.
func (n *Node) releaseFrame(f *tunnelFrame, where string) {
	pooled := f.pooled
	*f = tunnelFrame{}
	if pooled {
		f.nextFree = n.pool.frames
		n.pool.frames = f
	}
}

// live is the debug pool's checkpoint for a packet entering a handler.
func (p *OverlayPacket) live(where string) {}

// live is the debug pool's checkpoint for a frame entering a handler.
func (f *tunnelFrame) live(where string) {}
