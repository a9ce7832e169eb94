package brunet

import "wow/internal/sim"

// poolDebug reports whether the packetdebug free list is compiled in; the
// allocation guards and list-length checks skip their assertions under it.
const poolDebug = sim.PoolDebug

// pktListLen, ctmListLen, frameListLen, linkListLen and pingListLen are the
// lengths of the free lists of overlay packets, CTM messages, tunnel frames,
// link messages and pings n releases into.
func (n *Node) pktListLen() int   { return n.pool.pkts.Len() }
func (n *Node) ctmListLen() int   { return n.pool.ctms.Len() }
func (n *Node) frameListLen() int { return n.pool.frames.Len() }
func (n *Node) linkListLen() int  { return n.pool.links.Len() }
func (n *Node) pingListLen() int  { return n.pool.pings.Len() }
