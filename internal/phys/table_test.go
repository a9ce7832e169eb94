package phys

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"wow/internal/sim"
)

// sockTableHolds checks a host's socket table against the oracle the test
// keeps: the same sockets under the same keys, strictly ascending, held in
// the inline slots exactly while they fit, and found — or not — by the one
// search for every key the program can produce.
func sockTableHolds(h *Host, oracle map[uint32]*UDPSock, probes []uint32) error {
	if len(h.socks) != len(oracle) {
		return fmt.Errorf("table holds %d sockets, oracle %d", len(h.socks), len(oracle))
	}
	for i, sl := range h.socks {
		if i > 0 && h.socks[i-1].key >= sl.key {
			return fmt.Errorf("slot %d: key %#x after %#x", i, sl.key, h.socks[i-1].key)
		}
		if sl.key != sockKey(sl.sock.proto, sl.sock.port) || oracle[sl.key] != sl.sock || sl.sock.closed {
			return fmt.Errorf("slot %d: key %#x holds %d/%d (closed=%v), oracle %v",
				i, sl.key, sl.sock.port, sl.sock.proto, sl.sock.closed, oracle[sl.key])
		}
	}
	if inline := cap(h.socks) == len(h.sockArr); inline != (len(h.socks) <= len(h.sockArr)) {
		return fmt.Errorf("%d sockets, inline=%v", len(h.socks), inline)
	}
	if len(h.socks) > 0 && len(h.socks) <= len(h.sockArr) && &h.socks[0] != &h.sockArr[0] {
		return fmt.Errorf("%d sockets outside the host's own slots", len(h.socks))
	}
	for _, key := range probes {
		want, held := oracle[key]
		i, found := h.findSock(key)
		if found != held || (found && h.socks[i].sock != want) {
			return fmt.Errorf("findSock(%#x) = %d, %v; oracle holds it: %v", key, i, found, held)
		}
		if !found && ((i > 0 && h.socks[i-1].key >= key) || (i < len(h.socks) && h.socks[i].key <= key)) {
			return fmt.Errorf("findSock(%#x) = %d is not its insertion point", key, i)
		}
	}
	return nil
}

// Property: through any program of Listen(port), Listen(0), ListenStream,
// DialStream, Close, re-binds and datagrams, the sorted socket table is the
// map it replaced. The oracle is that map, kept by the test, together with
// a model of the ephemeral-port counter (start at 32768, skip bound ports,
// wrap from 65535 back to 32768).
func TestQuickSockTable(t *testing.T) {
	// Ports the program binds by number: low ones, and the bottom of the
	// ephemeral range so explicit and ephemeral bindings collide.
	ports := []uint16{1, 2, 3, 32768, 32769, 32770, 65535}
	var probes []uint32
	for _, proto := range []uint8{WireUDP, WireTCP, 0, 255} {
		for _, p := range append([]uint16{0, 4, 32771, 32772, 32773, 32774, 65534}, ports...) {
			probes = append(probes, sockKey(proto, p))
		}
	}
	var failure error
	f := func(ops []uint32) bool {
		s := sim.New(1)
		net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
		site := net.AddSite("a")
		h := net.AddHost("h", site, net.Root(), HostConfig{})
		peer := net.AddHost("peer", site, net.Root(), HostConfig{})
		if _, err := peer.ListenStream(9, func(*Stream) {}); err != nil {
			failure = err
			return false
		}
		from, _ := peer.Listen(9)

		oracle := map[uint32]*UDPSock{}
		closers := map[uint32]func(){} // how the program closes what it bound
		recv := map[uint32]int{}       // datagrams delivered, by UDP socket key
		next := map[uint8]uint16{}     // ephemeral-counter model, by wire protocol
		ephemeral := func(proto uint8) uint16 {
			for {
				port := next[proto]
				if port == 0 {
					port = 32768
				}
				next[proto] = port + 1
				if _, taken := oracle[sockKey(proto, port)]; !taken {
					return port
				}
			}
		}
		bound := func(sock *UDPSock, closer func()) {
			key := sockKey(sock.proto, sock.port)
			oracle[key] = sock
			closers[key] = closer
			if sock.proto == WireUDP {
				sock.OnRecv = func(*Packet) { recv[key]++ }
			}
		}
		fail := func(step int, op uint32, format string, args ...any) bool {
			failure = fmt.Errorf("step %d (op %#x): %s", step, op, fmt.Sprintf(format, args...))
			return false
		}
		for step, op := range ops {
			port := ports[int(op>>8)%len(ports)]
			switch op % 8 {
			case 0: // bind a UDP port by number; a bound one is refused
				_, taken := oracle[sockKey(WireUDP, port)]
				sock, err := h.Listen(port)
				if taken != errors.Is(err, ErrPortInUse) || taken != (err != nil) {
					return fail(step, op, "Listen(%d) with the port bound=%v: %v", port, taken, err)
				}
				if err == nil {
					bound(sock, sock.Close)
				}
			case 1: // ephemeral UDP
				want := ephemeral(WireUDP)
				sock, err := h.Listen(0)
				if err != nil || sock.Port() != want {
					return fail(step, op, "Listen(0) = %v, %v; model says port %d", sock, err, want)
				}
				bound(sock, sock.Close)
			case 2: // TCP listener by number
				_, taken := oracle[sockKey(WireTCP, port)]
				l, err := h.ListenStream(port, func(*Stream) {})
				if taken != errors.Is(err, ErrPortInUse) || taken != (err != nil) {
					return fail(step, op, "ListenStream(%d) with the port bound=%v: %v", port, taken, err)
				}
				if err == nil {
					bound(l.sock, l.Close)
				}
			case 3: // dialed stream: an ephemeral TCP socket, closed by stream teardown
				want := ephemeral(WireTCP)
				st := h.DialStream(Endpoint{IP: peer.IP(), Port: 9})
				if st.sock.port != want {
					return fail(step, op, "DialStream bound %d; model says %d", st.sock.port, want)
				}
				bound(st.sock, func() { st.abort(ErrStreamTimeout) })
				s.RunFor(sim.Millisecond) // handshake done: nothing of it in flight later
			case 4, 5: // close one of the bound sockets; closing twice is harmless
				if len(h.socks) > 0 {
					key := h.socks[int(op>>16)%len(h.socks)].key
					closers[key]()
					closers[key]()
					delete(oracle, key)
					delete(closers, key)
				}
			case 6: // a datagram to every numbered port: delivered iff bound
				before := stat(net, "lost.noport")
				want := int64(0)
				for _, p := range ports {
					from.Send(Endpoint{IP: h.IP(), Port: p}, 10, nil)
					if _, held := oracle[sockKey(WireUDP, p)]; !held {
						want++
					}
				}
				had := map[uint32]int{}
				for k, v := range recv {
					had[k] = v
				}
				s.RunFor(sim.Millisecond)
				for _, p := range ports {
					key := sockKey(WireUDP, p)
					got := recv[key] - had[key]
					if _, held := oracle[key]; held != (got == 1) || got > 1 {
						return fail(step, op, "port %d bound=%v received %d datagrams", p, held, got)
					}
				}
				if lost := stat(net, "lost.noport") - before; lost != want {
					return fail(step, op, "lost.noport grew by %d, want %d", lost, want)
				}
			case 7: // a datagram in flight to a port that closes meanwhile
				key := sockKey(WireUDP, port)
				if _, held := oracle[key]; held {
					before, had := stat(net, "lost.noport"), recv[key]
					from.Send(Endpoint{IP: h.IP(), Port: port}, 10, nil)
					closers[key]()
					delete(oracle, key)
					delete(closers, key)
					s.RunFor(sim.Millisecond)
					if recv[key] != had || stat(net, "lost.noport") != before+1 {
						return fail(step, op, "in flight to closed port %d: delivered %d, lost.noport +%d",
							port, recv[key]-had, stat(net, "lost.noport")-before)
					}
				} else if op>>28 == 0 { // rarely: park both counters just under the top
					next[WireUDP], next[WireTCP] = 65534, 65534
					h.nextPorts = [2]uint16{65534, 65534}
				}
			}
			if err := sockTableHolds(h, oracle, probes); err != nil {
				return fail(step, op, "%v", err)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}
}

// The socket table leaves the host's inline slots on the third binding and
// returns to them when a close brings it back to two — the directed case of
// what TestQuickSockTable reaches by chance.
func TestSockTableSpillsAndReturns(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
	h := net.AddHost("h", net.AddSite("a"), net.Root(), HostConfig{})
	oracle := map[uint32]*UDPSock{}
	var socks []*UDPSock
	for _, port := range []uint16{30, 10, 20, 40} { // out of order on purpose
		sock, err := h.Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, sock)
		oracle[sockKey(WireUDP, port)] = sock
		if err := sockTableHolds(h, oracle, nil); err != nil {
			t.Fatalf("after Listen(%d): %v", port, err)
		}
	}
	if cap(h.socks) <= len(h.sockArr) {
		t.Fatal("four sockets still in two inline slots")
	}
	for _, sock := range socks {
		sock.Close()
		delete(oracle, sockKey(WireUDP, sock.port))
		if err := sockTableHolds(h, oracle, []uint32{sockKey(WireUDP, sock.port)}); err != nil {
			t.Fatalf("after Close(%d): %v", sock.port, err)
		}
	}
	if h.sockArr != [2]sockSlot{} {
		t.Fatalf("closed sockets still referenced from the inline slots: %v", h.sockArr)
	}
}

// A realm's directory is dense over the addresses NextIP has handed out:
// an address given to a middlebox is a hole, addresses below the base and
// past the top miss, and Hosts counts hosts, not addresses.
func TestHostDirectoryHolesAndBounds(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	root := net.Root()
	base := MustParseIP("128.0.0.1")

	h1 := net.AddHost("h1", site, root, HostConfig{})
	pub := root.NextIP() // a NAT's public address
	h2 := net.AddHost("h2", site, root, HostConfig{})
	if h1.IP() != base || pub != base+1 || h2.IP() != base+2 {
		t.Fatalf("addresses %s, %s, %s do not count up from %s", h1.IP(), pub, h2.IP(), base)
	}
	if got := hostCount(root); got != 2 {
		t.Fatalf("%d hosts with two hosts and one hole", got)
	}
	for _, tc := range []struct {
		ip   IP
		want *Host
	}{{h1.IP(), h1}, {h2.IP(), h2}, {pub, nil}, {base - 1, nil}, {base + 3, nil}, {0, nil}, {^IP(0), nil}} {
		if got := root.host(tc.ip); got != tc.want || root.HasHost(tc.ip) != (tc.want != nil) {
			t.Errorf("host(%s) = %v, HasHost %v; want %v", tc.ip, got, root.HasHost(tc.ip), tc.want)
		}
	}
	// The hole is covered once a boundary claims it, and still no host.
	if root.Covers(pub) {
		t.Fatal("unclaimed hole covered")
	}
	nat := &fakeNAT{public: pub}
	lan := net.AddRealm("lan", root, nat, MustParseIP("10.0.0.10"))
	if !root.Covers(pub) || root.HasHost(pub) {
		t.Fatalf("claimed hole: Covers %v, HasHost %v", root.Covers(pub), root.HasHost(pub))
	}

	// Nested realms: each has its own base, the same private addresses
	// resolve per realm, and a nested NAT's address is a hole in the LAN.
	in1 := net.AddHost("in1", site, lan, HostConfig{})
	nestedPub := lan.NextIP()
	in2 := net.AddHost("in2", site, lan, HostConfig{})
	nested := net.AddRealm("nested", lan, &fakeNAT{public: nestedPub}, MustParseIP("10.0.0.10"))
	deep := net.AddHost("deep", site, nested, HostConfig{})
	if deep.IP() != in1.IP() || lan.host(in1.IP()) != in1 || nested.host(deep.IP()) != deep {
		t.Fatalf("the same address %s must resolve per realm: lan %v, nested %v", in1.IP(), lan.host(in1.IP()), nested.host(deep.IP()))
	}
	if lan.HasHost(nestedPub) || !lan.Covers(nestedPub) || lan.host(in2.IP()) != in2 || hostCount(lan) != 2 || hostCount(nested) != 1 {
		t.Fatalf("lan directory: hole HasHost %v Covers %v, in2 %v, Hosts %d/%d",
			lan.HasHost(nestedPub), lan.Covers(nestedPub), lan.host(in2.IP()), hostCount(lan), hostCount(nested))
	}
	if lan.HasHost(MustParseIP("10.0.0.9")) || lan.HasHost(h1.IP()) || root.HasHost(in1.IP()) {
		t.Fatal("an address below a realm's base, or of another realm, resolved")
	}
}

// One descent, two callers. The directory routes — two levels of NAT out, the
// reply back in — and the echo through the two nested NATs ends in the same
// translated addresses, the same translation counts and the same loss reasons
// for an unmapped port and an address past the top whether the claiming chain is descended at send time
// by the echo server's own shard (a one-shard network on either constructor,
// or a chain pinned to the server's shard of two) or at arrival by the shard
// that owns it (deliverBoundary). The NATs keep their tables in maps and the
// two-shard engines run two workers, so under -race a middlebox consulted off
// its owning shard is a reported race.
func TestNestedChainDescentInlineAndDeferred(t *testing.T) {
	type outcome struct {
		atPub, deepSrc, deepDst Endpoint
		replies                 int
		stats                   string
	}
	run := func(t *testing.T, shards int, chainSite string) outcome {
		var net *Network
		var runAll func()
		if shards == 0 {
			s := sim.New(1)
			net, runAll = NewNetwork(s, lanWan()), s.Run
		} else {
			eng := sim.NewSharded(1, shards, shards)
			defer eng.Close()
			eng.SetLookahead(20 * sim.Millisecond) // lanWan's floor between sites
			net, runAll = NewShardedNetwork(eng, lanWan()), func() { eng.RunUntil(sim.Time(sim.Second)) }
		}
		// Of two shards, "pub" and "near" land on shard 0 and "far" on shard 1;
		// every pair of sites is the same 20 ms apart.
		sites := map[string]*Site{}
		for _, name := range []string{"pub", "far", "near"} {
			sites[name] = net.AddSite(name)
		}
		root := net.Root()
		pub := net.AddHost("pub", sites["pub"], root, HostConfig{})
		outer := &fakeNAT{public: root.NextIP()}
		lan := net.AddRealm("lan", root, outer, MustParseIP("10.0.0.10"))
		inner := &fakeNAT{public: lan.NextIP()}
		nested := net.AddRealm("nested", lan, inner, MustParseIP("192.168.0.10"))
		deep := net.AddHost("deep", sites[chainSite], nested, HostConfig{})
		if inline := shards < 2 || chainSite == "near"; (lan.shard() == pub.Shard()) != inline {
			t.Fatalf("chain on shard %d, server on shard %d: wrong leg", lan.shard(), pub.Shard())
		}

		var out outcome
		echo, _ := pub.Listen(7)
		echo.OnRecv = func(p *Packet) {
			out.atPub = p.Src
			echo.Send(p.Src, 10, "pong")
			echo.Send(Endpoint{IP: outer.public, Port: 1}, 10, "unmapped")
		}
		sock, _ := deep.Listen(5000)
		sock.OnRecv = func(p *Packet) {
			out.replies++
			out.deepSrc, out.deepDst = p.Src, p.Dst
		}
		deep.Sim().At(0, func() {
			sock.Send(Endpoint{IP: pub.IP(), Port: 7}, 10, "ping")
			sock.Send(Endpoint{IP: pub.IP() + 100, Port: 7}, 10, "past the top")
		})
		runAll()
		out.stats = statsString(net)
		return out
	}
	want := run(t, 0, "far")
	if want.replies != 1 || want.deepDst != (Endpoint{IP: MustParseIP("192.168.0.10"), Port: 5000}) ||
		want.deepSrc.Port != 7 || want.atPub.Port != 2000 {
		t.Fatalf("serial echo through two NATs: %+v", want)
	}
	for _, name := range []string{"boundary.out=4", "boundary.in=2", "lost.boundary=1", "lost.noroute=1", "delivered=2"} {
		if !strings.Contains(want.stats, name) {
			t.Fatalf("serial stats %q lack %s", want.stats, name)
		}
	}
	for _, tc := range []struct {
		name      string
		shards    int
		chainSite string
	}{
		{"one shard, inline", 1, "far"},
		{"two shards, chain on the server's: inline", 2, "near"},
		{"two shards, chain on the other: deferred", 2, "far"},
	} {
		if got := run(t, tc.shards, tc.chainSite); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// Every shard resolves root-realm hosts through the one directory while the
// engine runs: hosts are added before the run, so the reads are concurrent
// and there is no write to race with. Run under -race with four workers
// (CI's sharded step), this is the check that the dense directory is as
// shareable as the map it replaced.
func TestHostDirectoryConcurrentShards(t *testing.T) {
	const shards, perShard, rounds = 4, 8, 5
	eng := sim.NewSharded(11, shards, shards)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 10 * sim.Millisecond},
	))
	var sites []*Site
	for i := 0; i < shards; i++ {
		sites = append(sites, net.AddSite(fmt.Sprintf("s%d", i)))
	}
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	var hosts []*Host
	var socks []*UDPSock
	var delivered atomic.Int64
	for i := 0; i < shards*perShard; i++ {
		h := net.AddHost(fmt.Sprintf("h%d", i), sites[i%shards], net.Root(), HostConfig{})
		net.Root().NextIP() // interleave holes, as NATs would
		sock, err := h.Listen(7)
		if err != nil {
			t.Fatal(err)
		}
		sock.OnRecv = func(*Packet) { delivered.Add(1) }
		hosts, socks = append(hosts, h), append(socks, sock)
	}
	// Every host sends to every host, hole addresses included, in every
	// round: each shard's send path reads the root directory all the time.
	for r := 0; r < rounds; r++ {
		for i, h := range hosts {
			sock := socks[i]
			h.Sim().At(sim.Time(r)*sim.Time(sim.Millisecond), func() {
				for _, to := range hosts {
					sock.Send(Endpoint{IP: to.IP(), Port: 7}, 10, nil)
					sock.Send(Endpoint{IP: to.IP() + 1, Port: 7}, 10, nil)
				}
			})
		}
	}
	eng.RunUntil(sim.Time(sim.Second))
	want := int64(rounds * len(hosts) * len(hosts))
	total := net.TotalStats()
	if delivered.Load() != want || total.Get("delivered") != want || total.Get("lost.noroute") != want {
		t.Fatalf("delivered %d (stats %d), lost.noroute %d; want %d each",
			delivered.Load(), total.Get("delivered"), total.Get("lost.noroute"), want)
	}
}

// The ephemeral counter of each wire namespace starts at 32768, skips bound
// ports and wraps from 65535 back to 32768, independently per namespace.
func TestEphemeralPortsPerWireNamespace(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	h := net.AddHost("h", net.AddSite("a"), net.Root(), HostConfig{})
	if _, err := h.Listen(32769); err != nil {
		t.Fatal(err)
	}
	listen := func(proto uint8) uint16 {
		t.Helper()
		sock, err := h.listenWire(proto, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sock.port
	}
	if a, b := listen(WireUDP), listen(WireUDP); a != 32768 || b != 32770 {
		t.Fatalf("UDP ephemeral ports %d, %d; want 32768, 32770 (32769 is bound)", a, b)
	}
	if a, b := listen(WireTCP), listen(WireTCP); a != 32768 || b != 32769 {
		t.Fatalf("TCP ephemeral ports %d, %d; want 32768, 32769", a, b)
	}
	h.nextPorts[wireIndex(WireUDP)] = 65535
	if a, b := listen(WireUDP), listen(WireUDP); a != 65535 || b != 32771 {
		t.Fatalf("UDP ephemeral ports across the wrap %d, %d; want 65535, 32771", a, b)
	}
	if got := listen(WireTCP); got != 32770 {
		t.Fatalf("TCP counter moved with UDP's: %d", got)
	}
}

// TestAllocFreeDrop: losing a packet allocates nothing when no flight
// recorder is installed — the record's outcome string is only spelled out
// for a traced payload.
func TestAllocFreeDrop(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
	site := net.AddSite("a")
	a := net.AddHost("a", site, net.Root(), HostConfig{})
	b := net.AddHost("b", site, net.Root(), HostConfig{})
	down := net.AddHost("down", site, net.Root(), HostConfig{})
	down.SetUp(false)
	sock, _ := a.Listen(0)
	// What the packet pool itself allocates per packet: nothing, except
	// under -tags packetdebug, whose pool never reuses one.
	var held *Packet // keeps the debug pool's fresh packet from staying on the stack
	pool := testing.AllocsPerRun(200, func() {
		held = net.shards[0].pkts.Get()
		net.shards[0].pkts.Put(held, "drop")
	})
	for _, tc := range []struct {
		name, stat string
		dst        Endpoint
	}{
		{"unbound port", "lost.noport", Endpoint{IP: b.IP(), Port: 9}},
		{"downed host", "lost.hostdown", Endpoint{IP: down.IP(), Port: 9}},
	} {
		send := func() {
			sock.Send(tc.dst, 10, nil)
			s.Run()
		}
		send() // warm-up: packet pool, event pool, the counter's map entry
		before := stat(net, tc.stat)
		avg := testing.AllocsPerRun(200, send)
		if lost := stat(net, tc.stat) - before; lost != 201 {
			t.Fatalf("%s: %s grew by %d over 201 sends; measurement would be vacuous", tc.name, tc.stat, lost)
		}
		if avg != pool {
			t.Errorf("datagram to %s: %.2f allocs per drop, want %.0f", tc.name, avg, pool)
		}
	}
}

// TestHotFieldsLayout pins what DESIGN.md §6 claims of a hop's footprint in
// Host: everything send, receive and the socket search read ends inside the
// struct's first two cache lines — the fields up to the socket table's
// pointer and length inside the first — and the inline socket slots fill
// the start of the third. Hosts are allocated in the 192-byte size class,
// whose objects start on a line.
func TestHotFieldsLayout(t *testing.T) {
	const line = 64
	var h Host
	for _, f := range []struct {
		name      string
		off, size uintptr
		limit     uintptr
	}{
		{"net", unsafe.Offsetof(h.net), unsafe.Sizeof(h.net), line},
		{"Site", unsafe.Offsetof(h.Site), unsafe.Sizeof(h.Site), line},
		{"realm", unsafe.Offsetof(h.realm), unsafe.Sizeof(h.realm), line},
		{"sim", unsafe.Offsetof(h.sim), unsafe.Sizeof(h.sim), line},
		{"shard", unsafe.Offsetof(h.shard), unsafe.Sizeof(h.shard), line},
		{"ip", unsafe.Offsetof(h.ip), unsafe.Sizeof(h.ip), line},
		{"up", unsafe.Offsetof(h.up), unsafe.Sizeof(h.up), line},
		// pointer and length; the capacity word is not read by a search
		{"socks", unsafe.Offsetof(h.socks), 2 * unsafe.Sizeof(uintptr(0)), line},
		{"cfg", unsafe.Offsetof(h.cfg), unsafe.Sizeof(h.cfg), 2 * line},
		{"txBusyUntil", unsafe.Offsetof(h.txBusyUntil), unsafe.Sizeof(h.txBusyUntil), 2 * line},
		{"cpuBusyUntil", unsafe.Offsetof(h.cpuBusyUntil), unsafe.Sizeof(h.cpuBusyUntil), 2 * line},
		{"sockArr", unsafe.Offsetof(h.sockArr), unsafe.Sizeof(h.sockArr), 3 * line},
	} {
		if f.off+f.size > f.limit {
			t.Errorf("Host.%s ends at byte %d, past byte %d: the field moved off the hop's cache lines", f.name, f.off+f.size, f.limit)
		}
	}
	if off := unsafe.Offsetof(h.sockArr); off != 2*line {
		t.Errorf("Host.sockArr starts at byte %d, want %d: both inline slots on one line", off, 2*line)
	}
	if size := unsafe.Sizeof(h); size > 3*line {
		t.Errorf("Host is %d bytes, past the %d-byte size class whose objects start on a cache line", size, 3*line)
	}
}

// TestHotFieldsPacketSize pins a packet to one cache line and the 64-byte
// size class: the pool's word sits in the padding after Proto. (The debug
// list's owner stamp and sites make it bigger under -tags packetdebug.)
func TestHotFieldsPacketSize(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 64 && !sim.PoolDebug {
		t.Errorf("Packet is %d bytes, past the 64-byte size class", size)
	}
}

// TestHotFieldsPerShardLines holds what each shard writes on every packet —
// its packet free list's header and its delivery, boundary and dial counts
// — to cache lines that no other shard's words touch, and a line away from
// both ends of the slice they live in, so that nothing the allocator puts
// beside the slice shares a line with them either (DESIGN.md §9, "Per-shard
// state owns its cache lines").
func TestHotFieldsPerShardLines(t *testing.T) {
	const k, line = 8, 64
	eng := sim.NewSharded(1, k, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(PathModel{}, PathModel{}))
	lo := uintptr(unsafe.Pointer(&net.shards[0]))
	hi := lo + k*unsafe.Sizeof(net.shards[0])
	owner := make(map[uintptr]int) // a cache line → the shard whose word lies on it
	for i := range net.shards {
		st := &net.shards[i]
		for _, w := range []struct {
			name     string
			at, size uintptr
		}{
			{"pkts", uintptr(unsafe.Pointer(&st.pkts)), unsafe.Sizeof(st.pkts)},
			{"delivered", uintptr(unsafe.Pointer(&st.delivered)), unsafe.Sizeof(st.delivered)},
			{"boundary.in", uintptr(unsafe.Pointer(&st.boundIn)), unsafe.Sizeof(st.boundIn)},
			{"boundary.out", uintptr(unsafe.Pointer(&st.boundOut)), unsafe.Sizeof(st.boundOut)},
			{"dialed", uintptr(unsafe.Pointer(&st.dialed)), unsafe.Sizeof(st.dialed)},
		} {
			if w.at < lo+line || w.at+w.size > hi-line {
				t.Errorf("shard %d's %s lies within %d bytes of an end of the shards' slice", i, w.name, line)
			}
			for l := w.at / line; l <= (w.at+w.size-1)/line; l++ {
				if j, ok := owner[l]; ok && j != i {
					t.Errorf("shard %d's %s shares a cache line with shard %d's words", i, w.name, j)
				}
				owner[l] = i
			}
		}
	}
}

var benchHops int

// BenchmarkHopWorkingSet times one datagram hop — send, propagate at zero
// latency, receive, socket search, handler — with the datagram relayed host
// to host along a fixed random cycle over all hosts, so at 4096 and 32768
// hosts every hop lands on host state the cache has long since lost. That
// is the regime of the ring workloads (2000 nodes × 16 KB); the bench
// drill's phys.send_deliver_ns ping-pongs between two hosts and stays
// cache-hot. Each host binds what a brunet router binds: one UDP socket
// and one TCP-namespace socket on the same port.
func BenchmarkHopWorkingSet(b *testing.B) {
	for _, hosts := range []int{64, 4096, 32768} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			s := sim.New(1)
			net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
			site := net.AddSite("a")
			socks := make([]*UDPSock, hosts)
			for i := range socks {
				h := net.AddHost("h", site, net.Root(), HostConfig{})
				if _, err := h.listenWire(WireTCP, 7); err != nil {
					b.Fatal(err)
				}
				socks[i], _ = h.Listen(7)
			}
			left := 0
			order := rand.New(rand.NewSource(1)).Perm(hosts)
			for i, at := range order {
				sock := socks[at]
				next := Endpoint{IP: socks[order[(i+1)%hosts]].host.ip, Port: 7}
				sock.OnRecv = func(*Packet) {
					if left--; left > 0 {
						sock.Send(next, 64, nil)
					}
				}
			}
			relay := func(hops int) {
				left = hops
				socks[order[hosts-1]].Send(Endpoint{IP: socks[order[0]].host.ip, Port: 7}, 64, nil)
				s.Run()
				if left != 0 {
					b.Fatalf("relay stopped with %d hops to go", left)
				}
			}
			relay(2 * hosts) // warm the packet and event pools
			if avg := testing.AllocsPerRun(1, func() { relay(1000) }); avg != 0 {
				b.Fatalf("%.0f allocs per 1000 hops, want 0", avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			relay(b.N)
			b.StopTimer()
			benchHops += b.N
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/hop")
		})
	}
}

// hostCount is the number of hosts r's directory holds, holes excluded.
func hostCount(r *Realm) int {
	n := 0
	for _, h := range r.hosts {
		if h != nil {
			n++
		}
	}
	return n
}
