// Package ipop implements the IP-over-P2P virtual network of the paper's
// reference [29], extended with the decentralized shortcut creation that is
// this paper's first contribution: virtual IP packets captured from a
// guest are tunnelled over the Brunet overlay to the node owning the
// destination virtual address, while traffic inspection drives the
// ShortcutConnectionOverlord toward direct one-hop links.
//
// An ipop.Node is the user-level process the paper kills and restarts
// around VM migration (§V-C): Stop tears down all overlay state, and a
// subsequent Start — possibly on a different physical host — rejoins the
// ring under the same P2P address, after which the virtual IP becomes
// routable again with no application-visible address change.
package ipop

import (
	"fmt"

	"wow/internal/brunet"
	"wow/internal/metrics"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
)

// addrNamespace salts the virtual-IP-to-P2P-address mapping.
const addrNamespace = "wow-ipop:"

// AddrForVIP maps a virtual IP to its owner's Brunet address. The mapping
// is deterministic, so any node can route to a virtual IP without lookups,
// and stable across migration, so a moved VM keeps its overlay identity.
// (The paper's IPOP resolves virtual IPs inside the tunnelled packets the
// same way: the address is a function of the IP, not of the host.)
func AddrForVIP(ip vip.IP) brunet.Addr {
	return brunet.AddrFromString(addrNamespace + ip.String())
}

// protoIPOP labels tunnelled virtual IP traffic on the overlay.
const protoIPOP = "ipop"

// Node is one IPOP endpoint: the tap that captures a guest's virtual IP
// traffic and tunnels it over a Brunet node. It implements vip.Carrier.
type Node struct {
	ip   vip.IP
	cfg  brunet.Config
	bn   *brunet.Node
	host *phys.Host
	recv func(*vip.Packet)

	// RouterOnly nodes (the paper's 118 PlanetLab nodes) run the
	// overlay router without a tap: they forward P2P traffic but
	// source/sink no virtual IP packets.
	routerOnly bool

	// addrs memoizes AddrForVIP for the destinations this node has sent
	// to: the mapping is a pure function of the IP (a formatted string and
	// a SHA-1 per call), so entries are never invalidated and outlive
	// Stop, Start and MoveToHost. Created on first use.
	addrs map[vip.IP]brunet.Addr

	// Stats counts tunnelled packets.
	Stats metrics.Counter
}

// New creates an IPOP node for a virtual IP on a physical host.
func New(host *phys.Host, ip vip.IP, cfg brunet.Config) *Node {
	return &Node{ip: ip, cfg: cfg, host: host, Stats: Counters.New()}
}

// NewRouter creates a router-only node (no virtual IP) with the given
// overlay address, as deployed on the paper's PlanetLab hosts.
func NewRouter(host *phys.Host, addr brunet.Addr, cfg brunet.Config) *Node {
	n := &Node{cfg: cfg, host: host, routerOnly: true, Stats: Counters.New()}
	n.bn = brunet.NewNode(host, addr, cfg)
	return n
}

// VIP returns the node's virtual IP (zero for router-only nodes).
func (n *Node) VIP() vip.IP { return n.ip }

// LocalVIP implements vip.Carrier.
func (n *Node) LocalVIP() vip.IP { return n.ip }

// Clock implements vip.Carrier.
func (n *Node) Clock() *sim.Simulator { return n.host.Sim() }

// Overlay returns the underlying Brunet node (nil when stopped).
func (n *Node) Overlay() *brunet.Node { return n.bn }

// Addr returns the node's overlay address.
func (n *Node) Addr() brunet.Addr {
	if n.routerOnly {
		return n.bn.Addr()
	}
	return AddrForVIP(n.ip)
}

// addrFor is AddrForVIP through the node's memo.
func (n *Node) addrFor(ip vip.IP) brunet.Addr {
	a, ok := n.addrs[ip]
	if !ok {
		if n.addrs == nil {
			n.addrs = make(map[vip.IP]brunet.Addr)
		}
		a = AddrForVIP(ip)
		n.addrs[ip] = a
	}
	return a
}

// Up reports whether the node is running.
func (n *Node) Up() bool { return n.bn != nil && n.bn.Up() }

// Start joins the overlay through the bootstrap URIs. For a compute node
// this is the moment its virtual IP begins converging toward routability
// (Figure 4's regimes).
func (n *Node) Start(bootstrap []brunet.URI) error {
	if n.Up() {
		return fmt.Errorf("ipop: node %s already running", n.ip)
	}
	if n.bn == nil || !n.routerOnly {
		n.bn = brunet.NewNode(n.host, n.Addr(), n.cfg)
	}
	if err := n.bn.Start(bootstrap); err != nil {
		return fmt.Errorf("ipop: %w", err)
	}
	if !n.routerOnly {
		n.bn.RegisterProto(protoIPOP, n.fromOverlay)
	}
	return nil
}

// Stop kills the IPOP process ungracefully, exactly as the migration
// procedure of §V-C does: no goodbyes, peers find out via ping timeouts.
func (n *Node) Stop() {
	if n.bn != nil {
		n.bn.Stop()
		if !n.routerOnly {
			n.bn = nil
		}
	}
}

// Leave departs the overlay gracefully: close messages let peers drop
// their connection state immediately instead of waiting for ping timeouts.
func (n *Node) Leave() {
	if n.bn != nil {
		n.bn.Leave()
		if !n.routerOnly {
			n.bn = nil
		}
	}
}

// MoveToHost relocates the (stopped) node to a different physical host —
// the network side of a VM migration. Call Stop first and Start after.
func (n *Node) MoveToHost(h *phys.Host) error {
	if n.Up() {
		return fmt.Errorf("ipop: cannot move running node %s", n.ip)
	}
	n.host = h
	return nil
}

// SetReceiver implements vip.Carrier.
func (n *Node) SetReceiver(f func(*vip.Packet)) { n.recv = f }

// SendIP implements vip.Carrier: tunnel one virtual IP packet over the
// overlay toward the node owning its destination address. Exact delivery
// mode drops packets at the nearest neighbor when the owner is down,
// matching real IP semantics (unroutable packets vanish).
func (n *Node) SendIP(p *vip.Packet) {
	if !n.Up() || n.routerOnly {
		n.Stats.Add(cTunnelDroppedDown, 1)
		return
	}
	n.Stats.Add(cTunnelOut, 1)
	if p.Dst == n.ip {
		// Loopback (e.g. the PBS head mounting its own NFS export):
		// deliver asynchronously so transport code never re-enters
		// its caller's stack frame.
		n.host.Sim().After(0, func() {
			if n.Up() && n.recv != nil {
				n.Stats.Add(cTunnelIn, 1)
				n.recv(p)
			}
		})
		return
	}
	n.bn.SendTo(n.addrFor(p.Dst), brunet.DeliverExact, brunet.AppData{
		Proto: protoIPOP,
		Size:  p.Size,
		Data:  p,
	})
}

// fromOverlay injects a tunnelled packet back into the local stack.
func (n *Node) fromOverlay(src brunet.Addr, d brunet.AppData) {
	p, ok := d.Data.(*vip.Packet)
	if !ok {
		n.Stats.Add(cTunnelGarbage, 1)
		return
	}
	if p.Dst != n.ip {
		// Greedy routing delivered to the nearest neighbor of a dead
		// address; a real tap would never see this packet.
		n.Stats.Add(cTunnelMisrouted, 1)
		return
	}
	n.Stats.Add(cTunnelIn, 1)
	if n.recv != nil {
		n.recv(p)
	}
}

var _ vip.Carrier = (*Node)(nil)

// BootURIs extracts bootstrap URIs from running router nodes; convenience
// for testbed assembly.
func BootURIs(routers ...*Node) []brunet.URI {
	var out []brunet.URI
	for _, r := range routers {
		if r.Up() {
			out = append(out, r.bn.BootstrapURI())
		}
	}
	return out
}
