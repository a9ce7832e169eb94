package natsim

import (
	"testing"
	"testing/quick"

	"wow/internal/phys"
	"wow/internal/sim"
)

// These tests pin the shard-safety contract of the middleboxes: a middlebox
// is consulted by the shard that owns its chain and by no other, and a run
// does not depend on how many workers execute the shard windows.
//
// A serial network and a one-shard engine are one pipeline — every inbound
// packet is translated when it is sent — and produce the same outcome on any
// plan, however dense. On two shards a packet for a chain on another shard
// than its sender's is translated when it arrives, so the two-shard run
// equals the serial one exactly when no mapping-creating event lands inside
// a packet's flight window: on plans spaced further apart than the WAN
// flight time. The scenario fabric has zero jitter and zero loss, so the RNG
// is never consulted and runs are comparable event for event.

// natOutcome is everything observable of one scenario run.
type natOutcome struct {
	echoes, bGot, cGot int
	bDrops, cDrops     [numNATDrops]int
	bMaps, cMaps       int
	stats              string
}

// runNATScenario replays a deterministic traffic plan over {public echo
// server, host b behind a NAT of type tb, host c behind a NAT of type tc}.
// shards<=0 builds the serial network (phys.NewNetwork); otherwise the
// sharded engine with the given worker count. Plan bytes alternate b->server and
// c->server sends (which create and exercise NAT mappings) with
// server-initiated probes at NAT public ports (which hit or miss mappings
// subject to each type's filtering discipline), one plan event every spacing.
func runNATScenario(seed int64, shards, workers int, tb, tc NATType, spacing sim.Duration, plan []byte) (natOutcome, uint64) {
	latency := phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 20 * sim.Millisecond},
	)
	var (
		net *phys.Network
		eng *sim.Sharded
		s   *sim.Simulator
	)
	if shards > 0 {
		eng = sim.NewSharded(seed, shards, workers)
		defer eng.Close()
		net = phys.NewShardedNetwork(eng, latency)
	} else {
		s = sim.New(seed)
		net = phys.NewNetwork(s, latency)
	}
	pubSite := net.AddSite("pub")
	lanSiteB := net.AddSite("lanB")
	lanSiteC := net.AddSite("lanC")
	if eng != nil && shards > 1 {
		floor, ok := net.CrossShardFloor()
		if !ok {
			panic("nat scenario: no cross-shard site pair")
		}
		eng.SetLookahead(floor)
	}
	clockAt := func(site *phys.Site) func() sim.Time {
		if eng != nil {
			return eng.Shard(site.Shard()).Now
		}
		return s.Now
	}
	server := net.AddHost("server", pubSite, net.Root(), phys.HostConfig{})
	natB := NewNAT("natB", Config{Type: tb}, net.Root().NextIP(), clockAt(lanSiteB))
	realmB := net.AddRealm("lanB", net.Root(), natB, phys.MustParseIP("10.0.0.1"))
	b := net.AddHost("b", lanSiteB, realmB, phys.HostConfig{})
	natC := NewNAT("natC", Config{Type: tc}, net.Root().NextIP(), clockAt(lanSiteC))
	realmC := net.AddRealm("lanC", net.Root(), natC, phys.MustParseIP("10.0.0.1"))
	c := net.AddHost("c", lanSiteC, realmC, phys.HostConfig{})

	out := natOutcome{}
	ss, _ := server.Listen(500)
	ss.OnRecv = func(p *phys.Packet) {
		out.echoes++
		ss.Send(p.Src, 16, "echo")
	}
	bs, _ := b.Listen(100)
	bs.OnRecv = func(*phys.Packet) { out.bGot++ }
	cs, _ := c.Listen(100)
	cs.OnRecv = func(*phys.Packet) { out.cGot++ }

	schedule := func(h *phys.Host, at sim.Time, f func()) {
		if eng != nil {
			eng.Shard(h.Shard()).At(at, f)
		} else {
			s.At(at, f)
		}
	}
	target := phys.Endpoint{IP: server.IP(), Port: 500}
	for i, v := range plan {
		at := sim.Time(i+1) * sim.Time(spacing)
		switch v % 4 {
		case 0:
			schedule(b, at, func() { bs.Send(target, 32, "b") })
		case 1:
			schedule(c, at, func() { cs.Send(target, 32, "c") })
		case 2:
			// Probe a low NAT public port: hits a real mapping once b has
			// sent (then each type's filter decides), misses otherwise.
			port := uint16(1024 + i%4)
			schedule(server, at, func() { ss.Send(phys.Endpoint{IP: natB.PublicIP(), Port: port}, 32, "probe") })
		case 3:
			// Guaranteed-unmapped port on c's NAT: always a nomapping drop.
			port := uint16(4000 + i)
			schedule(server, at, func() { ss.Send(phys.Endpoint{IP: natC.PublicIP(), Port: port}, 32, "probe") })
		}
	}
	horizon := sim.Time(len(plan)+2) * sim.Time(spacing)
	horizon = horizon.Add(sim.Second)
	if eng != nil {
		eng.RunUntil(horizon)
	} else {
		s.RunUntil(horizon)
	}
	out.bDrops, out.cDrops = natB.drops, natC.drops
	out.bMaps = natB.Mappings()
	out.cMaps = natC.Mappings()
	total := net.TotalStats()
	out.stats = total.String()
	var events uint64
	if eng != nil {
		events = eng.Processed()
	} else {
		events = s.Processed
	}
	return out, events
}

// Plan spacings: spaced exceeds the 20ms WAN flight, so no plan event lands
// inside another packet's flight window; dense puts four events inside every
// flight.
const (
	spaced = 25 * sim.Millisecond
	dense  = 5 * sim.Millisecond
)

// TestQuickShardedNATEquivalence: for arbitrary NAT type pairs and traffic
// plans, the serial network and the 1-shard engine produce identical
// outcomes — same deliveries, same NAT drop tables, same live mappings, same
// merged network stats — on spaced and on dense plans; on spaced plans the
// 2-shard engine produces them too; and the 2-shard event trace is
// worker-invariant, event totals included, on both.
func TestQuickShardedNATEquivalence(t *testing.T) {
	f := func(rawB, rawC uint8, plan []byte) bool {
		if len(plan) > 48 {
			plan = plan[:48]
		}
		tb := NATType(rawB % 4)
		tc := NATType(rawC % 4)
		for _, spacing := range []sim.Duration{spaced, dense} {
			serial, _ := runNATScenario(11, 0, 0, tb, tc, spacing, plan)
			one, _ := runNATScenario(11, 1, 1, tb, tc, spacing, plan)
			two1, ev1 := runNATScenario(11, 2, 1, tb, tc, spacing, plan)
			two2, ev2 := runNATScenario(11, 2, 2, tb, tc, spacing, plan)
			if serial != one || (spacing == spaced && serial != two1) {
				t.Logf("tb=%v tc=%v spacing=%v plan=%v\nserial: %+v\n1shard: %+v\n2shard: %+v", tb, tc, spacing, plan, serial, one, two1)
				return false
			}
			if two1 != two2 || ev1 != ev2 {
				t.Logf("worker variance at spacing %v: %+v (%d ev) vs %+v (%d ev)", spacing, two1, ev1, two2, ev2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedNATDensePlanCases: dense plans on which a serial network and a
// one-shard engine used to part (a probe sent while no mapping existed met,
// at arrival, the mapping a later packet had created inside its flight), kept
// as cases so the property above does not depend on quick's draw. One
// pipeline also means one event count.
func TestShardedNATDensePlanCases(t *testing.T) {
	for _, tc := range []struct {
		b, c NATType
		plan []byte
	}{
		{FullCone, Symmetric, []byte{2, 0, 2, 1, 3, 2}},
		{Symmetric, Symmetric, []byte{0x72, 0xe8, 0x68, 0x29, 0x3b, 0x00, 0xa8, 0xbe}},
	} {
		serial, evS := runNATScenario(11, 0, 0, tc.b, tc.c, dense, tc.plan)
		one, ev1 := runNATScenario(11, 1, 1, tc.b, tc.c, dense, tc.plan)
		if serial != one || evS != ev1 {
			t.Errorf("b=%v c=%v plan=%v\nserial: %+v (%d ev)\n1shard: %+v (%d ev)", tc.b, tc.c, tc.plan, serial, evS, one, ev1)
		}
	}
}

// TestShardedNATClockIsOwningShard: a NAT's idle-expiry reaping reads the
// owning shard's clock. After the engine advances, Mappings() must see the
// advanced time and reap an expired mapping exactly as the serial NAT does.
func TestShardedNATClockIsOwningShard(t *testing.T) {
	eng := sim.NewSharded(5, 2, 1)
	defer eng.Close()
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 20 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub")
	lanSite := net.AddSite("lan")
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	net.AddHost("server", pubSite, net.Root(), phys.HostConfig{})
	nat := NewNAT("nat", Config{Type: PortRestricted},
		net.Root().NextIP(), eng.Shard(lanSite.Shard()).Now)
	realm := net.AddRealm("lan", net.Root(), nat, phys.MustParseIP("10.0.0.1"))
	inside := net.AddHost("inside", lanSite, realm, phys.HostConfig{})

	is, _ := inside.Listen(100)
	pub := phys.Endpoint{IP: phys.MustParseIP("128.99.0.1"), Port: 9}
	eng.Shard(1).At(0, func() { is.Send(pub, 16, "x") })
	eng.RunUntil(sim.Time(sim.Second))
	if got := nat.Mappings(); got != 1 {
		t.Fatalf("live mappings = %d, want 1", got)
	}
	eng.RunFor(mappingTTL + sim.Minute)
	if got := nat.Mappings(); got != 0 {
		t.Fatalf("live mappings after TTL = %d, want 0 (stale clock?)", got)
	}
}
