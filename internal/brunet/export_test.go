package brunet

import "wow/internal/sim"

// poolDebug reports whether the packetdebug free list is compiled in; the
// allocation guards and list-length checks skip their assertions under it.
const poolDebug = sim.PoolDebug

// pktListLen, frameListLen and linkListLen are the lengths of the free lists
// of overlay packets, tunnel frames and link messages n releases into.
func (n *Node) pktListLen() int   { return n.pool.pkts.Len() }
func (n *Node) frameListLen() int { return n.pool.frames.Len() }
func (n *Node) linkListLen() int  { return n.pool.links.Len() }
