package brunet

// pktListLen is the length of the overlay-packet free list n releases into.
func (n *Node) pktListLen() int {
	l := 0
	for p := n.pool.pkts; p != nil; p = p.nextFree {
		l++
	}
	return l
}

// frameListLen is the length of the tunnel-frame free list n releases into.
func (n *Node) frameListLen() int {
	l := 0
	for f := n.pool.frames; f != nil; f = f.nextFree {
		l++
	}
	return l
}
