package natsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wow/internal/phys"
	"wow/internal/sim"
)

// The flow memo must be invisible: a device that remembers the previous
// packet's flow answers every packet as the maps alone would. The programs
// below drive a device and its map-only reference (oracle_test.go) with the
// same packets at the same instants — in runs of one flow, so the memo is
// hit, and interleaved, so it moves — and compare every return value, every
// rewritten address, the drop counters and the tables themselves after
// every step.

// progTTL is the NAT's idle expiry; the firewall programs give their
// pinholes the same TTL.
const progTTL = mappingTTL

var (
	progInner = endpoints("10.0.0.1", 3, 4000, 2)
	progPeers = endpoints("128.9.0.1", 3, 5000, 2)
	// clock steps short of, at and past the TTL, measured from whatever the
	// previous step touched
	progSteps = []sim.Duration{sim.Millisecond, progTTL / 2, progTTL - 1, progTTL, progTTL + 1}
)

func endpoints(base string, ips int, port uint16, ports int) []phys.Endpoint {
	var out []phys.Endpoint
	for i := 0; i < ips; i++ {
		for j := 0; j < ports; j++ {
			out = append(out, phys.Endpoint{IP: phys.MustParseIP(base) + phys.IP(i), Port: port + uint16(j)})
		}
	}
	return out
}

// natLevel is one NAT of a chain with its reference.
type natLevel struct {
	dev *NAT
	ref *refNAT
}

// flow is an outbound packet that made it through the whole chain: where it
// came from, whom it went to and the public endpoint the peer saw.
type flow struct {
	proto             uint8
	src, peer, seenAs phys.Endpoint
}

// natProgram drives a chain of NATs, innermost first, beside its reference.
type natProgram struct {
	rng   *rand.Rand
	now   sim.Time
	chain []natLevel
	known []flow
	err   error
}

func newNATProgram(rng *rand.Rand, cfgs ...Config) *natProgram {
	pr := &natProgram{rng: rng}
	clock := func() sim.Time { return pr.now }
	for i, cfg := range cfgs {
		pub := phys.MustParseIP("128.227.0.1") + phys.IP(i)
		pr.chain = append(pr.chain, natLevel{NewNAT(fmt.Sprint("nat", i), cfg, pub, clock), newRefNAT(cfg, pub, clock)})
	}
	return pr
}

func (pr *natProgram) failf(format string, args ...any) {
	if pr.err == nil {
		pr.err = fmt.Errorf(format, args...)
	}
}

// same compares one translation step of device and reference.
func (pr *natProgram) same(what string, lvl int, ok, rok bool, p, q *phys.Packet) {
	if ok != rok || p.Src != q.Src || p.Dst != q.Dst {
		pr.failf("%s at level %d: device %v %v->%v, reference %v %v->%v", what, lvl, ok, p.Src, p.Dst, rok, q.Src, q.Dst)
	}
}

// onDevice runs one translation on the device and takes out of the
// reference every expired mapping the device's table scan reaped, so the
// reference, stepped next, reaps at the same moments and the tables stay
// equal entry for entry.
func (l natLevel) onDevice(now sim.Time, translate func() bool) bool {
	var expired []*mapping
	for _, m := range l.dev.table {
		if l.dev.expired(now, m) {
			expired = append(expired, m)
		}
	}
	ok := translate()
	for _, m := range expired {
		if !slices.Contains(l.dev.table, m) {
			l.ref.remove(l.ref.byKey[m.key])
		}
	}
	return ok
}

// descend carries an inbound packet from level from down to the host.
func (pr *natProgram) descend(from int, p, q *phys.Packet) {
	for lvl := from; lvl >= 0; lvl-- {
		l := pr.chain[lvl]
		ok := l.onDevice(pr.now, func() bool { return l.dev.Inbound(pr.now, p) })
		rok := l.ref.Inbound(pr.now, q)
		pr.same("Inbound", lvl, ok, rok, p, q)
		if !ok {
			return
		}
	}
}

func (pr *natProgram) inbound(proto uint8, src, dst phys.Endpoint) {
	p := phys.Packet{Src: src, Dst: dst, Proto: proto}
	q := p
	pr.descend(len(pr.chain)-1, &p, &q)
}

// outbound carries a packet up the chain; one addressed to a NAT's own
// public IP is turned around there (hairpin) and descends again. A packet
// that leaves the outermost NAT is returned as a flow and kept in known.
func (pr *natProgram) outbound(proto uint8, src, dst phys.Endpoint) (flow, bool) {
	p := phys.Packet{Src: src, Dst: dst, Proto: proto}
	q := p
	for lvl, l := range pr.chain {
		ok := l.onDevice(pr.now, func() bool { return l.dev.Outbound(pr.now, &p) })
		rok := l.ref.Outbound(pr.now, &q)
		pr.same("Outbound", lvl, ok, rok, &p, &q)
		if !ok {
			return flow{}, false
		}
		if p.Dst.IP == l.dev.publicIP {
			pr.descend(lvl, &p, &q)
			return flow{}, false
		}
	}
	f := flow{proto, src, dst, p.Src}
	if len(pr.known) < 24 {
		pr.known = append(pr.known, f)
	} else {
		pr.known[pr.rng.Intn(len(pr.known))] = f
	}
	return f, true
}

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

func (pr *natProgram) proto() uint8 {
	return pick(pr.rng, []uint8{phys.WireUDP, phys.WireUDP, phys.WireTCP})
}

// check compares the tables of every level with the reference's and holds
// the memo to its invariant.
func (pr *natProgram) check() {
	for lvl, l := range pr.chain {
		if err := sameNAT(l.dev, l.ref); err != nil {
			pr.failf("level %d: %v", lvl, err)
		}
	}
}

func sameNAT(n *NAT, r *refNAT) error {
	if n.cfg != r.cfg || n.nextPort != r.nextPort || !sameDrops(n.drops[:], natDropNames[:], r.Drops) {
		return fmt.Errorf("device cfg %+v nextPort %d drops %v, reference %+v %d %v", n.cfg, n.nextPort, n.drops, r.cfg, r.nextPort, r.Drops)
	}
	if len(n.table) != len(r.byKey) || len(r.byPublic) != len(r.byKey) {
		return fmt.Errorf("device holds %d mappings, reference %d/%d", len(n.table), len(r.byKey), len(r.byPublic))
	}
	// Each key and each public port is in the table once. With the counts
	// equal, the table and the reference's maps then hold the same mappings.
	for _, m := range n.table {
		rm := r.byKey[m.key]
		if rm == nil || m.key.inner != rm.inner || m.public != rm.public || m.lastUsed != rm.lastUsed || !samePeers(m.peers, rm.peers) {
			return fmt.Errorf("mapping %+v: device %+v, reference %+v", m.key, m, rm)
		}
		keys, ports := 0, 0
		for _, o := range n.table {
			if o.key == m.key {
				keys++
			}
			if o.public.Port == m.public.Port && o.key.proto == m.key.proto {
				ports++
			}
		}
		if keys != 1 || ports != 1 || r.byPublic[pubKey{m.key.proto, rm.public.Port}] != rm {
			return fmt.Errorf("mapping %+v is not the table's only one under its key and public port", m.key)
		}
	}
	if m := n.last; m != nil && (!slices.Contains(n.table, m) || !slices.Contains(m.peers, n.lastPeer)) {
		return fmt.Errorf("memo %+v peer %v is not a mapping of the table with that peer", m, n.lastPeer)
	}
	return nil
}

// samePeers reports whether the flat peer list holds each destination of
// the reference's sets exactly once.
func samePeers(peers []phys.Endpoint, ref map[phys.IP]map[uint16]bool) bool {
	n := 0
	for _, ports := range ref {
		n += len(ports)
	}
	if len(peers) != n {
		return false
	}
	for i, e := range peers {
		if !ref[e.IP][e.Port] || slices.Contains(peers[:i], e) {
			return false
		}
	}
	return true
}

// run executes steps random steps. A packet usually repeats the previous
// outbound or answers it, as the packets of a transfer do.
func (pr *natProgram) run(steps int) error {
	rng := pr.rng
	var prev flow
	for step := 0; step < steps && pr.err == nil; step++ {
		switch r := rng.Intn(100); {
		case r < 20 && prev != flow{}:
			pr.outbound(prev.proto, prev.src, prev.peer)
		case r < 40 && prev != flow{}:
			pr.inbound(prev.proto, prev.peer, prev.seenAs)
		case r < 60:
			dst := pick(rng, progPeers)
			if rng.Intn(8) == 0 { // toward a NAT of the chain itself: hairpin
				dst = phys.Endpoint{IP: pick(rng, pr.chain).dev.publicIP, Port: 1024 + uint16(rng.Intn(4))}
			}
			if f, ok := pr.outbound(pr.proto(), pick(rng, progInner), dst); ok {
				prev = f
			}
		case r < 82 && len(pr.known) > 0:
			f := pick(rng, pr.known)
			src, dst, proto := f.peer, f.seenAs, f.proto
			switch rng.Intn(6) {
			case 0: // right IP, wrong port
				src.Port++
			case 1: // wrong IP
				src.IP += 7
			case 2: // wrong wire protocol
				proto ^= phys.WireUDP ^ phys.WireTCP
			case 3: // a public port nobody holds
				dst.Port += 4000
			}
			pr.inbound(proto, src, dst)
		case r < 92:
			pr.now = pr.now.Add(pick(rng, progSteps))
		case r < 94:
			l := pick(rng, pr.chain)
			l.dev.Rebind()
			l.ref.Rebind()
		case r < 96:
			l, typ := pick(rng, pr.chain), NATType(rng.Intn(4))
			l.dev.SetType(typ)
			l.ref.SetType(typ)
		default:
			l := pick(rng, pr.chain)
			if got, want := l.dev.Mappings(), l.ref.Mappings(); got != want {
				pr.failf("Mappings() = %d, reference %d", got, want)
			}
		}
		pr.check()
		if pr.err != nil {
			return fmt.Errorf("step %d: %w", step, pr.err)
		}
	}
	return nil
}

// TestQuickFlowMemoMatchesReference runs the program over all four
// disciplines, hairpin on and off, alone and as the inner NAT of a
// two-level chain.
func TestQuickFlowMemoMatchesReference(t *testing.T) {
	for _, typ := range []NATType{FullCone, RestrictedCone, PortRestricted, Symmetric} {
		for _, hairpin := range []bool{false, true} {
			for _, nested := range []bool{false, true} {
				var hits, lookups uint64
				f := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					cfgs := []Config{{Type: typ, Hairpin: hairpin}}
					if nested {
						cfgs = append(cfgs, Config{Type: NATType(rng.Intn(4)), Hairpin: rng.Intn(2) == 0})
					}
					pr := newNATProgram(rng, cfgs...)
					if err := pr.run(600); err != nil {
						t.Errorf("%v hairpin=%v nested=%v seed %d: %v", typ, hairpin, nested, seed, err)
						return false
					}
					h, l := pr.chain[0].dev.MemoStats()
					hits, lookups = hits+h, lookups+l
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(int64(typ) + 11))}); err != nil {
					t.Fatal(err)
				}
				// The program must exercise both sides of the memo.
				if hits*10 < lookups || hits*10 > lookups*9 {
					t.Errorf("%v hairpin=%v nested=%v: %d of %d translations hit the memo; the program is lopsided", typ, hairpin, nested, hits, lookups)
				}
			}
		}
	}
}

// TestFlowMemoCases scripts the edges the program reaches only by chance.
func TestFlowMemoCases(t *testing.T) {
	in, peer, other := progInner[0], progPeers[0], progPeers[2]
	for _, typ := range []NATType{FullCone, RestrictedCone, PortRestricted, Symmetric} {
		pr := newNATProgram(rand.New(rand.NewSource(1)), Config{Type: typ})
		nat := pr.chain[0].dev
		step := func(what string) {
			t.Helper()
			pr.check()
			if pr.err != nil {
				t.Fatalf("%v: %s: %v", typ, what, pr.err)
			}
		}
		first, _ := pr.outbound(phys.WireUDP, in, peer)
		pub := first.seenAs
		// Exactly at the TTL the mapping lives and the hit refreshes it...
		pr.now = pr.now.Add(progTTL)
		pr.outbound(phys.WireUDP, in, peer)
		step("outbound at the TTL")
		pr.now = pr.now.Add(progTTL)
		pr.inbound(phys.WireUDP, peer, pub)
		step("inbound a TTL after the refresh")
		if h, _ := nat.MemoStats(); h != 2 {
			t.Fatalf("%v: %d memo hits on one flow's second and third packet, want 2", typ, h)
		}
		// ...a nanosecond later it is gone, for the reply as for the next send.
		pr.now = pr.now.Add(progTTL + 1)
		pr.inbound(phys.WireUDP, peer, pub)
		step("inbound past the TTL")
		if nat.last != nil || len(nat.table) != 0 || nat.drops[dropNoMapping] != 1 {
			t.Fatalf("%v: expired mapping survives: memo %v, %d mappings, drops %v", typ, nat.last, len(nat.table), nat.drops)
		}
		pr.outbound(phys.WireUDP, in, peer)
		pr.now = pr.now.Add(progTTL + 1)
		second, _ := pr.outbound(phys.WireUDP, in, peer)
		step("outbound past the TTL")
		if second.seenAs == pub || len(nat.table) != 1 {
			t.Fatalf("%v: expired mapping re-used: public %v then %v, %d mappings", typ, pub, second.seenAs, len(nat.table))
		}
		// Rebind forgets the flow the memo holds.
		nat.Rebind()
		pr.chain[0].ref.Rebind()
		pr.inbound(phys.WireUDP, peer, second.seenAs)
		third, _ := pr.outbound(phys.WireUDP, in, peer)
		step("after Rebind")
		// A second destination on the memo's mapping, then the first again,
		// then the wrong protocol and the wrong port on the memo's own.
		fourth, _ := pr.outbound(phys.WireUDP, in, other)
		pr.inbound(phys.WireUDP, peer, third.seenAs)
		pr.inbound(phys.WireUDP, other, fourth.seenAs)
		pr.inbound(phys.WireTCP, other, fourth.seenAs)
		pr.inbound(phys.WireUDP, phys.Endpoint{IP: other.IP, Port: other.Port + 1}, fourth.seenAs)
		step("two destinations")
		// A scan that passes an expired mapping reaps it, whether the scan
		// finds its own (a live flow's second destination; under Symmetric
		// a new mapping, made after a scan that found nothing).
		pr.outbound(phys.WireUDP, progInner[1], peer)
		pr.now = pr.now.Add(progTTL / 2)
		pr.outbound(phys.WireUDP, progInner[2], peer)
		pr.now = pr.now.Add(progTTL/2 + 1)
		pr.outbound(phys.WireUDP, progInner[2], other)
		step("a scan past expired mappings")
		if i := slices.IndexFunc(nat.table, func(m *mapping) bool { return nat.expired(pr.now, m) }); i >= 0 {
			t.Fatalf("%v: expired mapping %+v survives a scan past it", typ, nat.table[i].key)
		}
	}
}

// TestFlowMemoHitRates reads the memo's counters: a ping-pong through three
// nested NATs and a firewall is one flow at every device and all but the
// first packet hit, while 256 flows taken round-robin never send two
// packets of a flow back to back, hit nothing outbound and translate as
// they did when established.
func TestFlowMemoHitRates(t *testing.T) {
	r := newRig(1)
	fw := NewFirewall("fw", 0, r.s.Now)
	campus := r.net.AddRealm("campus", r.net.Root(), fw, phys.MustParseIP("128.227.0.1"))
	server := r.publicHost("server")
	cfg := Config{Type: PortRestricted}
	ispRealm, isp := r.natRealm("isp", cfg, campus, "100.64.0.1")
	wifiRealm, wifi := r.natRealm("wifi", cfg, ispRealm, "192.168.1.1")
	vmRealm, vmnat := r.natRealm("vmware", Config{Type: Symmetric, Hairpin: true}, wifiRealm, "172.20.0.1")
	vm := r.net.AddHost("node034", r.site, vmRealm, phys.HostConfig{})
	_, echoes := echo(server, 500)
	sock, _ := vm.Listen(0)
	const rounds = 1000
	got := 0
	sock.OnRecv = func(*phys.Packet) {
		if got++; got < rounds {
			sock.Send(phys.Endpoint{IP: server.IP(), Port: 500}, 64, nil)
		}
	}
	sock.Send(phys.Endpoint{IP: server.IP(), Port: 500}, 64, nil)
	r.s.Run()
	if *echoes != rounds || got != rounds {
		t.Fatalf("%d echoes, %d replies, want %d", *echoes, got, rounds)
	}
	for _, d := range []struct {
		name string
		dev  interface{ MemoStats() (uint64, uint64) }
	}{{vmnat.name, vmnat}, {wifi.name, wifi}, {isp.name, isp}, {fw.name, fw}} {
		if h, l := d.dev.MemoStats(); l != 2*rounds || h*100 < l*99 {
			t.Errorf("%s: %d of %d packets hit the memo, want >= 99%% of %d", d.name, h, l, 2*rounds)
		}
	}

	const flows = 256
	for _, typ := range []NATType{FullCone, RestrictedCone, PortRestricted, Symmetric} {
		now := sim.Time(0)
		nat := NewNAT("nat", Config{Type: typ}, phys.MustParseIP("128.9.9.9"), func() sim.Time { return now })
		var public [flows]phys.Endpoint
		for round := 0; round < 4; round++ {
			for i := 0; i < flows; i++ {
				inner, peer := drillFlow(i)
				p := phys.Packet{Src: inner, Dst: peer, Proto: phys.WireUDP}
				if !nat.Outbound(now, &p) || (round > 0 && p.Src != public[i]) {
					t.Fatalf("%v: flow %d round %d went out as %v, established as %v", typ, i, round, p.Src, public[i])
				}
				public[i] = p.Src
			}
		}
		if h, l := nat.MemoStats(); h != 0 || l != 4*flows {
			t.Errorf("%v: %d of %d round-robin outbounds hit the memo, want 0 of %d", typ, h, l, 4*flows)
		}
		for i := 0; i < flows; i++ {
			inner, peer := drillFlow(i)
			p := phys.Packet{Src: peer, Dst: public[i], Proto: phys.WireUDP}
			if !nat.Inbound(now, &p) || p.Dst != inner {
				t.Fatalf("%v: reply of flow %d came in as %v, want %v", typ, i, p.Dst, inner)
			}
		}
		if nat.Mappings() != flows {
			t.Errorf("%v: %d mappings, want %d", typ, nat.Mappings(), flows)
		}
	}
}

// fwProgram drives a firewall beside its reference.
type fwProgram struct {
	now sim.Time
	dev *Firewall
	ref *refFirewall
}

const progAllowed = 40000

func newFWProgram() *fwProgram {
	pr := &fwProgram{ref: newRefFirewall(progTTL, progAllowed)}
	pr.dev = NewFirewall("fw", progTTL, func() sim.Time { return pr.now }, progAllowed)
	return pr
}

func (pr *fwProgram) outbound(proto uint8, src, dst phys.Endpoint) error {
	p := phys.Packet{Src: src, Dst: dst, Proto: proto}
	if ok, rok := pr.dev.Outbound(pr.now, &p), pr.ref.Outbound(pr.now, &p); ok != rok {
		return fmt.Errorf("Outbound %v->%v: device %v, reference %v", src, dst, ok, rok)
	}
	return pr.check()
}

func (pr *fwProgram) inbound(proto uint8, src, dst phys.Endpoint) error {
	p := phys.Packet{Src: src, Dst: dst, Proto: proto}
	if ok, rok := pr.dev.Inbound(pr.now, &p), pr.ref.Inbound(pr.now, &p); ok != rok {
		return fmt.Errorf("Inbound %v->%v: device %v, reference %v", src, dst, ok, rok)
	}
	return pr.check()
}

// check compares the pinholes, each at the time the device would answer
// with: the memo's for the memo's pinhole, the map's for any other.
func (pr *fwProgram) check() error {
	f, r := pr.dev, pr.ref
	if !sameDrops(f.drops[:], firewallDropNames[:], r.Drops) {
		return fmt.Errorf("device drops %v, reference %v", f.drops, r.Drops)
	}
	if len(f.flows) != len(r.flows) {
		return fmt.Errorf("device holds %d pinholes, reference %d", len(f.flows), len(r.flows))
	}
	for k, want := range r.flows {
		got, ok := f.flows[k]
		if f.last.live && f.last.key == k {
			if got > f.last.seen || (!f.last.dirty && got != f.last.seen) {
				return fmt.Errorf("memo %+v against map time %v", f.last, got)
			}
			got = f.last.seen
		}
		if !ok || got != want {
			return fmt.Errorf("pinhole %+v last used %v (%v), reference %v", k, got, ok, want)
		}
	}
	if _, ok := f.flows[f.last.key]; f.last.live && !ok {
		return fmt.Errorf("memo %+v is not a pinhole of the map", f.last)
	}
	return nil
}

// TestQuickPinholeMemoMatchesReference is the NAT program's shape on the
// firewall: pinholes opened, refreshed from both sides and expired, an
// allow-listed port, a protocol blocked mid-run.
func TestQuickPinholeMemoMatchesReference(t *testing.T) {
	var hits, lookups uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := newFWProgram()
		inside := append(endpoints("128.227.0.10", 2, 4000, 2), phys.Endpoint{IP: phys.MustParseIP("128.227.0.10"), Port: progAllowed})
		var src, dst phys.Endpoint
		var proto uint8
		for step := 0; step < 600; step++ {
			var err error
			switch r := rng.Intn(100); {
			case r < 25 && proto != 0:
				err = pr.outbound(proto, src, dst)
			case r < 50 && proto != 0:
				err = pr.inbound(proto, dst, src)
			case r < 65:
				src, dst, proto = pick(rng, inside), pick(rng, progPeers), pick(rng, []uint8{phys.WireUDP, phys.WireUDP, phys.WireTCP})
				err = pr.outbound(proto, src, dst)
			case r < 85:
				err = pr.inbound(pick(rng, []uint8{phys.WireUDP, phys.WireTCP}), pick(rng, progPeers), pick(rng, inside))
			case r < 99:
				pr.now = pr.now.Add(pick(rng, progSteps))
			case step > 400:
				pr.dev.BlockProto(phys.WireTCP)
				pr.ref.BlockProto(phys.WireTCP)
			}
			if err != nil {
				t.Errorf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		h, l := pr.dev.MemoStats()
		hits, lookups = hits+h, lookups+l
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	if hits*10 < lookups || hits*10 > lookups*9 {
		t.Errorf("%d of %d pinhole passes hit the memo; the program is lopsided", hits, lookups)
	}
}

// TestPinholeMemoCases scripts the firewall's edges: expiry exactly one
// nanosecond past the TTL on the memo's own pinhole, and a refresh that
// lives only in the memo surviving the memo's move to a second flow.
func TestPinholeMemoCases(t *testing.T) {
	a, b, peer := phys.Endpoint{IP: 1, Port: 100}, phys.Endpoint{IP: 2, Port: 100}, progPeers[0]
	pr := newFWProgram()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(pr.outbound(phys.WireUDP, a, peer))
	pr.now = pr.now.Add(progTTL)
	must(pr.inbound(phys.WireUDP, peer, a)) // at the TTL: admitted, refreshed in the memo alone
	if !pr.dev.last.dirty || pr.dev.drops[dropUnsolicited] != 0 {
		t.Fatalf("reply at the TTL: memo %+v, drops %v", pr.dev.last, pr.dev.drops)
	}
	must(pr.outbound(phys.WireUDP, b, peer)) // the memo moves; a's refresh must move into the map
	pr.now = pr.now.Add(progTTL)
	must(pr.inbound(phys.WireUDP, peer, a)) // alive only by that refresh
	if pr.dev.drops[dropUnsolicited] != 0 {
		t.Fatalf("refresh lost when the memo moved: drops %v", pr.dev.drops)
	}
	pr.now = pr.now.Add(progTTL + 1)
	must(pr.inbound(phys.WireUDP, peer, a)) // the memo's pinhole, one nanosecond too old
	if pr.dev.drops[dropUnsolicited] != 1 || pr.dev.last.live || len(pr.dev.flows) != 1 {
		t.Fatalf("expiry on the memo's pinhole: drops %v, memo %+v, %d pinholes", pr.dev.drops, pr.dev.last, len(pr.dev.flows))
	}
	must(pr.inbound(phys.WireUDP, peer, phys.Endpoint{IP: 3, Port: progAllowed})) // allow-listed: no pinhole needed
	pr.dev.BlockProto(phys.WireUDP)
	pr.ref.BlockProto(phys.WireUDP)
	must(pr.outbound(phys.WireUDP, b, peer))
	must(pr.inbound(phys.WireUDP, peer, phys.Endpoint{IP: 3, Port: progAllowed}))
	if pr.dev.drops[dropProto] != 2 {
		t.Fatalf("blocked protocol: drops %v", pr.dev.drops)
	}
}

// TestFlowMemoAllocFree: a steady flow through each NAT type and the
// firewall allocates nothing, hit or miss.
func TestFlowMemoAllocFree(t *testing.T) {
	in, peers := progInner[0], progPeers
	for _, typ := range []NATType{FullCone, RestrictedCone, PortRestricted, Symmetric} {
		now := sim.Time(0)
		nat := NewNAT("nat", Config{Type: typ}, phys.MustParseIP("128.9.9.9"), func() sim.Time { return now })
		var public [2]phys.Endpoint
		for i := range public {
			p := phys.Packet{Src: in, Dst: peers[i], Proto: phys.WireUDP}
			nat.Outbound(now, &p)
			public[i] = p.Src
		}
		for _, flows := range []int{1, 2} { // one flow: every packet hits; two alternating: every outbound misses
			if avg := testing.AllocsPerRun(100, func() {
				for i := 0; i < flows; i++ {
					p := phys.Packet{Src: in, Dst: peers[i], Proto: phys.WireUDP}
					q := phys.Packet{Src: peers[i], Dst: public[i], Proto: phys.WireUDP}
					if !nat.Outbound(now, &p) || !nat.Inbound(now, &q) || p.Src != public[i] || q.Dst != in {
						t.Fatalf("%v: mistranslated", typ)
					}
				}
			}); avg != 0 {
				t.Errorf("%v, %d flows: %.2f allocs per round trip, want 0", typ, flows, avg)
			}
		}
	}
	fw := NewFirewall("fw", 0, func() sim.Time { return 0 })
	for _, flows := range []int{1, 2} {
		if avg := testing.AllocsPerRun(100, func() {
			for i := 0; i < flows; i++ {
				p := phys.Packet{Src: in, Dst: peers[i], Proto: phys.WireUDP}
				q := phys.Packet{Src: peers[i], Dst: in, Proto: phys.WireUDP}
				if !fw.Outbound(0, &p) || !fw.Inbound(0, &q) {
					t.Fatal("firewall dropped an established flow")
				}
			}
		}); avg != 0 {
			t.Errorf("firewall, %d flows: %.2f allocs per round trip, want 0", flows, avg)
		}
	}
}
