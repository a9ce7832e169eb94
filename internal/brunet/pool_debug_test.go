//go:build packetdebug

package brunet

import (
	"strings"
	"testing"
)

// mustPanic runs f and checks that it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", r, want)
		}
	}()
	f()
}

// A pooled overlay packet released twice, or routed after its release,
// panics and names both sites; an unpooled one (a CTM) is never marked.
func TestPoolDebugOverlayPacket(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	p := n.acquirePkt()
	p.pooled = true
	n.releasePkt(p, "first site")
	mustPanic(t, "double release of overlay packet in second site (first released in first site)",
		func() { n.releasePkt(p, "second site") })
	mustPanic(t, "use of released overlay packet in routePacket (released in first site)",
		func() { n.routePacket(p, n.addr) })
	mustPanic(t, "use of released overlay packet in handleWire",
		func() { n.handleWire(wire{}, p) })

	ctm := &OverlayPacket{Src: n.addr, Dst: n.addr}
	n.releasePkt(ctm, "x")
	n.releasePkt(ctm, "y")
	ctm.live("z")
}

// A tunnel frame released twice, or handled after its release, panics.
func TestPoolDebugTunnelFrame(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	f := n.acquireFrame()
	n.releaseFrame(f, "first site")
	mustPanic(t, "double release of tunnel frame in second site (first released in first site)",
		func() { n.releaseFrame(f, "second site") })
	mustPanic(t, "use of released tunnel frame in handleTunnelFrame (released in first site)",
		func() { n.handleTunnelFrame(wire{}, f) })
}
