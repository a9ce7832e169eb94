package vip

import (
	"testing"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
)

// overlayCarrier tunnels a stack's packets over a brunet node in
// AppData.Data, as IPOP does, and remembers the last packet it sent and how
// many message ends that packet held when it went.
type overlayCarrier struct {
	ip       IP
	node     *brunet.Node
	peers    map[IP]brunet.Addr
	recv     func(*Packet)
	lastSent *Packet
	lastEnds int
}

func (o *overlayCarrier) LocalVIP() IP                { return o.ip }
func (o *overlayCarrier) Clock() *sim.Simulator       { return o.node.Host().Sim() }
func (o *overlayCarrier) SetReceiver(f func(*Packet)) { o.recv = f }
func (o *overlayCarrier) SendIP(p *Packet) {
	o.lastSent, o.lastEnds = p, len(p.tcp.Ends)
	o.node.SendTo(o.peers[p.Dst], brunet.DeliverExact, brunet.AppData{Proto: "vip", Size: p.Size, Data: p})
}

// TestLostOverlayPacketReleasesVIPPacket: a TCP segment whose overlay packet
// the physical layer loses is back on the sending shard's list, as a
// receiving stack would have released it: blank, its Ends emptied and
// cleared, their backing array kept for the next segment. Under packetdebug
// it is poisoned instead, released once.
func TestLostOverlayPacketReleasesVIPPacket(t *testing.T) {
	s := sim.New(3)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("z")
	peers := map[IP]brunet.Addr{}
	var carriers []*overlayCarrier
	for i, name := range []string{"vip-a", "vip-b"} {
		ip := IP(0xac100102 + uint32(i))
		n := brunet.NewNode(net.AddHost(name, site, net.Root(), phys.HostConfig{}), brunet.AddrFromString(name), brunet.FastTestConfig())
		var boot []brunet.URI
		if i > 0 {
			boot = []brunet.URI{carriers[0].node.BootstrapURI()}
		}
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
		o := &overlayCarrier{ip: ip, node: n, peers: peers}
		n.RegisterProto("vip", func(_ brunet.Addr, d brunet.AppData) { o.recv(d.Data.(*Packet)) })
		peers[ip] = n.Addr()
		carriers = append(carriers, o)
		s.RunFor(10 * sim.Second)
	}
	a, b := NewStack(carriers[0], StackConfig{}), NewStack(carriers[1], StackConfig{})
	if err := b.ListenTCP(80, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	c := a.DialTCP(b.IP(), 80)
	s.RunFor(sim.Second)
	if !c.Established() {
		t.Fatal("no connection over the overlay")
	}

	hostA := carriers[0].node.Host()
	net.Perturb = func(src, _ *phys.Host, pm phys.PathModel) (phys.PathModel, bool) { return pm, src == hostA }
	before, lost := a.PoolLen(), net.TotalStats()
	if err := c.Send(1000, "lost"); err != nil {
		t.Fatal(err)
	}
	p := carriers[0].lastSent
	after := net.TotalStats()
	if after.Get("lost.fault") != lost.Get("lost.fault")+1 || carriers[0].lastEnds != 1 {
		t.Fatal("the segment was not lost on the wire: the test would be vacuous")
	}
	if poolDebug {
		if p.Proto != 0xff {
			t.Error("the lost segment's packet was not released")
		}
		return
	}
	if got := a.PoolLen(); got != before || before == 0 {
		t.Fatalf("the list holds %d packets after the lost send, %d before it took one", got, before)
	}
	q := a.pool.pkts.Get()
	if q != p {
		t.Fatal("the packet on top of the list is not the lost segment's")
	}
	if len(q.tcp.Ends) != 0 || cap(q.tcp.Ends) == 0 || q.tcp.Ends[:1][0] != (chunkEnd{}) || q.Size != 0 {
		t.Errorf("the released packet is not blank with its Ends cleared and kept: size %d, ends %v of cap %d", q.Size, q.tcp.Ends[:cap(q.tcp.Ends)], cap(q.tcp.Ends))
	}
}
