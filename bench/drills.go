package main

import (
	"fmt"
	"runtime"
	"time"

	"wow/internal/brunet"
	"wow/internal/faults"
	"wow/internal/ipop"
	"wow/internal/metrics"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
	"wow/internal/vip"
	"wow/internal/workloads"
)

// A drill times a fixed number of calls into one layer alone, with stub
// neighbours, so a layer's own cost can be read apart from the workloads
// that mix it with everything else. Every drill runs three rounds and
// keeps the fastest.

// driller runs drills under spans and collects their figures.
type driller struct {
	sp  *spanRec
	out map[string]float64
	// sink absorbs results the drills compute only so the compiler cannot
	// drop the calls that produce them.
	sink float64
}

// timeIt runs round three times and returns the fastest round's host ns
// and its malloc count.
func (d *driller) timeIt(name string, round func()) (ns, mallocs float64) {
	s := d.sp.begin("drill." + name)
	defer s.end()
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		round()
		el := float64(time.Since(t0))
		runtime.ReadMemStats(&m1)
		if a := float64(m1.Mallocs - m0.Mallocs); i == 0 || a < mallocs {
			mallocs = a
		}
		if i == 0 || el < ns {
			ns = el
		}
	}
	return ns, mallocs
}

// perCall records ns (and, when allocName is set, allocations) per call of
// a round that makes n calls.
func (d *driller) perCall(name, allocName string, n int, round func()) {
	ns, mallocs := d.timeIt(name, round)
	d.out[name] = ns / float64(n)
	if allocName != "" {
		d.out[allocName] = mallocs / float64(n)
	}
}

func nop(any) {}

// fillQueue parks depth far-future events on s so the drills work against
// a heap as deep as a 2000-node build's.
func fillQueue(s *sim.Simulator, depth int) {
	far := s.Now().Add(1000 * sim.Hour)
	for i := 0; i < depth; i++ {
		s.AtArg(far.Add(sim.Duration(i)), nop, nil)
	}
}

const queueDepth = 64 << 10

func (d *driller) simDrills() {
	// schedule_pop: every fired event schedules its successor a
	// pseudo-random delay ahead, on top of the parked queue.
	{
		const n = 400000
		s := sim.New(1)
		fillQueue(s, queueDepth)
		type chain struct {
			s    *sim.Simulator
			left int
			x    uint32
		}
		var step func(any)
		step = func(a any) {
			c := a.(*chain)
			if c.left == 0 {
				return
			}
			c.left--
			c.x = c.x*1664525 + 1013904223
			c.s.AtArg(c.s.Now().Add(sim.Duration(c.x>>12)+1), step, c)
		}
		c := &chain{s: s}
		d.perCall("sim.schedule_pop_ns", "sim.atarg_allocs", n, func() {
			c.left = n
			for i := 0; i < 256; i++ {
				s.AtArg(s.Now().Add(sim.Duration(i+1)), step, c)
			}
			s.RunUntil(s.Now().Add(sim.Hour))
		})
	}
	// cancel: arm and cancel a timer against the same deep queue.
	{
		const n = 400000
		s := sim.New(1)
		fillQueue(s, queueDepth)
		d.perCall("sim.cancel_ns", "", n, func() {
			for i := 0; i < n; i++ {
				s.AtArg(s.Now().Add(sim.Duration(i%4096+1)*sim.Millisecond), nop, nil).Cancel()
			}
		})
	}
	// tick: 1024 jittered tickers firing for 100 virtual seconds.
	{
		const tickers, secs = 1024, 100
		s := sim.New(1)
		fillQueue(s, queueDepth)
		for i := 0; i < tickers; i++ {
			s.Tick(sim.Second, 100*sim.Millisecond, func() {})
		}
		d.perCall("sim.tick_ns", "", tickers*secs, func() {
			s.RunUntil(s.Now().Add(secs * sim.Second))
		})
	}
	// shard_window: K=8 windows that hold one trivial event per shard, so
	// what is timed is the floor scan, the job hand-off and the barrier.
	{
		const k, windows = 8, 20000
		look := 10 * sim.Millisecond
		d.perCall("sim.shard_window_ns", "", windows, func() {
			eng := sim.NewSharded(1, k, workers())
			defer eng.Close()
			eng.SetLookahead(look)
			for i := 0; i < k; i++ {
				sh := eng.Shard(i)
				var beat func(any)
				beat = func(any) { sh.AtArg(sh.Now().Add(look), beat, nil) }
				sh.AtArg(0, beat, nil)
			}
			eng.RunUntil(sim.Time(windows-1) * sim.Time(look))
		})
	}
	// shard_send: every shard hands 64 events per window to its
	// neighbour through the lanes; the empty-window cost above is
	// subtracted so the figure is per cross-shard event.
	{
		const k, windows, perWindow = 8, 2000, 64
		look := 10 * sim.Millisecond
		ns, _ := d.timeIt("sim.shard_send_ns", func() {
			eng := sim.NewSharded(1, k, workers())
			defer eng.Close()
			eng.SetLookahead(look)
			for i := 0; i < k; i++ {
				i, sh := i, eng.Shard(i)
				var beat func(any)
				beat = func(any) {
					for j := 0; j < perWindow; j++ {
						eng.Send(i, (i+1)%k, sh.Now().Add(look), nop, nil)
					}
					sh.AtArg(sh.Now().Add(look), beat, nil)
				}
				sh.AtArg(0, beat, nil)
			}
			eng.RunUntil(sim.Time(windows-1) * sim.Time(look))
		})
		sends := float64(k * windows * perWindow)
		d.out["sim.shard_send_ns"] = (ns - d.out["sim.shard_window_ns"]*windows) / sends
	}
	// merge: the canonical lane merge over eight sorted parts.
	{
		const parts, per, rounds = 8, 256, 200
		in := make([][]sim.Time, parts)
		for p := range in {
			in[p] = make([]sim.Time, per)
			for i := range in[p] {
				in[p][i] = sim.Time(i*parts + p)
			}
		}
		d.perCall("sim.merge_ns_per_item", "", parts*per*rounds, func() {
			for r := 0; r < rounds; r++ {
				sim.MergeStable(in, func(t sim.Time) sim.Time { return t })
			}
		})
	}
}

func (d *driller) physDrills() {
	// send_deliver: one 64-byte datagram between two public hosts on a
	// zero-latency fabric, drained at the frozen instant.
	{
		const n = 200000
		s := sim.New(1)
		net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
		a := mustListen(net.AddHost("a", net.AddSite("a"), net.Root(), phys.HostConfig{}))
		b := mustListen(net.AddHost("b", net.AddSite("b"), net.Root(), phys.HostConfig{}))
		b.OnRecv = func(*phys.Packet) {}
		dst := b.LocalEndpoint()
		d.perCall("phys.send_deliver_ns", "phys.send_deliver_allocs", n, func() {
			for i := 0; i < n; i++ {
				a.Send(dst, 64, nil)
				s.RunUntil(s.Now())
			}
		})
	}
	// cross_shard: the same datagram between hosts on two shards, a
	// hundred to a 10 ms window.
	{
		const windows, perWindow = 1000, 100
		wan := 10 * sim.Millisecond
		d.perCall("phys.cross_shard_ns", "", windows*perWindow, func() {
			eng := sim.NewSharded(1, 2, workers())
			defer eng.Close()
			net := phys.NewShardedNetwork(eng, phys.UniformLatency(phys.PathModel{}, phys.PathModel{OneWay: wan}))
			ha := net.AddHost("a", net.AddSite("a"), net.Root(), phys.HostConfig{})
			a := mustListen(ha)
			b := mustListen(net.AddHost("b", net.AddSite("b"), net.Root(), phys.HostConfig{}))
			b.OnRecv = func(*phys.Packet) {}
			eng.SetLookahead(wan)
			dst := b.LocalEndpoint()
			sh := ha.Sim()
			var beat func(any)
			beat = func(any) {
				for j := 0; j < perWindow; j++ {
					a.Send(dst, 64, nil)
				}
				sh.AtArg(sh.Now().Add(wan), beat, nil)
			}
			sh.AtArg(0, beat, nil)
			eng.RunUntil(sim.Time(windows-1) * sim.Time(wan))
		})
	}
	// boundary: a host behind a port-restricted NAT and a public echo
	// server; one round trip is one outbound and one inbound translation.
	{
		const n = 100000
		s := sim.New(1)
		net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
		nat := natsim.NewNAT("nat", natsim.Config{Type: natsim.PortRestricted}, net.Root().NextIP(), s.Now)
		lan := net.AddRealm("lan", net.Root(), nat, phys.MustParseIP("10.0.0.10"))
		in := mustListen(net.AddHost("in", net.AddSite("in"), lan, phys.HostConfig{}))
		out := mustListen(net.AddHost("out", net.AddSite("out"), net.Root(), phys.HostConfig{}))
		in.OnRecv = func(*phys.Packet) {}
		out.OnRecv = func(p *phys.Packet) { out.Send(p.Src, 64, nil) }
		dst := out.LocalEndpoint()
		ns, _ := d.timeIt("phys.boundary_ns", func() {
			for i := 0; i < n; i++ {
				in.Send(dst, 64, nil)
				s.RunUntil(s.Now())
			}
		})
		d.out["phys.boundary_ns"] = ns / (2 * n)
	}
}

func mustListen(h *phys.Host) *phys.UDPSock {
	sock, err := h.Listen(0)
	if err != nil {
		panic(fmt.Sprintf("drill: listen on %s: %v", h.Name, err))
	}
	return sock
}

func (d *driller) natsimDrills() error {
	const flows, rounds = 256, 400
	lan, wan := phys.MustParseIP("10.0.0.10"), phys.MustParseIP("128.9.0.1")
	inner := func(i int) phys.Endpoint {
		return phys.Endpoint{IP: lan + phys.IP(i%16), Port: uint16(4000 + i)}
	}
	peer := func(i int) phys.Endpoint {
		return phys.Endpoint{IP: wan + phys.IP(i%32), Port: uint16(5000 + i%7)}
	}
	types := []struct {
		name string
		t    natsim.NATType
	}{
		{"cone", natsim.FullCone}, {"restricted", natsim.RestrictedCone},
		{"port_restricted", natsim.PortRestricted}, {"symmetric", natsim.Symmetric},
	}
	for _, tt := range types {
		s := sim.New(1)
		net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
		nat := natsim.NewNAT("nat", natsim.Config{Type: tt.t}, net.Root().NextIP(), s.Now)
		net.AddRealm("lan", net.Root(), nat, phys.MustParseIP("10.0.0.10"))
		// Establish every flow once and remember its public mapping.
		public := make([]phys.Endpoint, flows)
		for i := range public {
			p := phys.Packet{Src: inner(i), Dst: peer(i), Proto: phys.WireUDP}
			nat.Outbound(s.Now(), &p)
			public[i] = p.Src
		}
		allocName := ""
		if tt.t == natsim.PortRestricted {
			allocName = "natsim.translate_allocs"
		}
		bad := 0
		d.perCall("natsim.translate_ns."+tt.name, allocName, 2*flows*rounds, func() {
			now := s.Now()
			var p phys.Packet
			for r := 0; r < rounds; r++ {
				for i := 0; i < flows; i++ {
					p = phys.Packet{Src: inner(i), Dst: peer(i), Proto: phys.WireUDP}
					if !nat.Outbound(now, &p) {
						bad++
					}
					p = phys.Packet{Src: peer(i), Dst: public[i], Proto: phys.WireUDP}
					if !nat.Inbound(now, &p) || p.Dst != inner(i) {
						bad++
					}
				}
			}
		})
		if bad > 0 {
			return fmt.Errorf("drill: %s NAT mistranslated %d packets", tt.name, bad)
		}
	}
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	fw := natsim.NewFirewall("fw", 0, s.Now)
	net.AddRealm("dmz", net.Root(), fw, phys.MustParseIP("129.1.0.10"))
	d.perCall("natsim.firewall_ns", "", 2*flows*rounds, func() {
		now := s.Now()
		var p phys.Packet
		for r := 0; r < rounds; r++ {
			for i := 0; i < flows; i++ {
				p = phys.Packet{Src: inner(i), Dst: peer(i), Proto: phys.WireUDP}
				fw.Outbound(now, &p)
				p = phys.Packet{Src: peer(i), Dst: inner(i), Proto: phys.WireUDP}
				fw.Inbound(now, &p)
			}
		}
	})
	return nil
}

// brunetDrills counts allocations on the routing path of a small settled
// ring: origination (SendTo) and per forwarded hop. Both are zero today.
func (d *driller) brunetDrills() error {
	o := defaultRingOpts(1)
	o.nodes, o.sites, o.settle = 96, 8, 60*sim.Second
	r := &ring{o: o}
	r.fabric()
	for i := range r.nodes {
		if err := r.join(i); err != nil {
			return err
		}
	}
	r.sim.RunFor(o.settle)
	// Alternate directions so each node's origination pool gets back the
	// packet it gave away.
	pairs := drawPairs(1, o.nodes, 500)
	round := func() {
		for _, p := range pairs {
			r.routeOne(p)
			r.routeOne([2]int32{p[1], p[0]})
		}
	}
	round() // warm the pools
	fwd0 := r.counters()["brunet.route_forwarded"]
	_, mallocs := d.timeIt("brunet.route_allocs", round)
	hops := (r.counters()["brunet.route_forwarded"] - fwd0) / 3
	d.out["brunet.sendto_allocs"] = mallocs / float64(2*len(pairs))
	d.out["brunet.forward_allocs"] = ratio(mallocs, hops)
	return nil
}

// memCarrier is an in-memory vip.Carrier: packets reach the peer stack a
// fixed delay later, except every lossEvery-th one.
type memCarrier struct {
	ip        vip.IP
	s         *sim.Simulator
	peer      *memCarrier
	recv      func(*vip.Packet)
	delay     sim.Duration
	lossEvery int
	sent      int
	// deliverFn is deliver bound once, so SendIP schedules it without
	// allocating a method value per packet.
	deliverFn func(any)
}

func (c *memCarrier) LocalVIP() vip.IP                { return c.ip }
func (c *memCarrier) Clock() *sim.Simulator           { return c.s }
func (c *memCarrier) SetReceiver(f func(*vip.Packet)) { c.recv = f }
func (c *memCarrier) SendIP(p *vip.Packet) {
	c.sent++
	if c.lossEvery > 0 && c.sent%c.lossEvery == 0 {
		return
	}
	c.s.AtArg(c.s.Now().Add(c.delay), c.peer.deliverFn, p)
}
func (c *memCarrier) deliver(a any) { c.recv(a.(*vip.Packet)) }

// stackPair builds two stacks joined by in-memory carriers.
func stackPair(lossEvery int) (s *sim.Simulator, a, b *vip.Stack) {
	s = sim.New(1)
	ca := &memCarrier{ip: vip.MustParseIP("172.16.1.2"), s: s, delay: sim.Millisecond, lossEvery: lossEvery}
	cb := &memCarrier{ip: vip.MustParseIP("172.16.1.3"), s: s, delay: sim.Millisecond}
	ca.peer, cb.peer = cb, ca
	ca.deliverFn, cb.deliverFn = ca.deliver, cb.deliver
	return s, vip.NewStack(ca, vip.StackConfig{}), vip.NewStack(cb, vip.StackConfig{})
}

func (d *driller) vipDrills() error {
	// tcp_seg: a 4 MB stream between two stacks over the in-memory
	// carrier, clean and with every hundredth data-direction packet lost.
	for _, c := range []struct {
		name, allocs string
		lossEvery    int
	}{{"vip.tcp_seg_ns", "vip.tcp_seg_allocs", 0}, {"vip.tcp_seg_ns_lossy", "", 100}} {
		const size = 4 << 20
		var segs float64
		var failed error
		ns, mallocs := d.timeIt(c.name, func() {
			s, a, b := stackPair(c.lossEvery)
			rx := &sink{}
			if err := serveSink(b, func() *sink { return rx }); err != nil {
				failed = err
				return
			}
			workloads.TTCP(a, b.IP(), size, func(workloads.TTCPResult) {})
			for i := 0; !rx.closed && i < 600; i++ {
				s.RunFor(100 * sim.Millisecond)
			}
			if rx.bytes != size {
				failed = fmt.Errorf("drill: %s delivered %d of %d bytes", c.name, rx.bytes, size)
			}
			segs = float64(a.Stats.Get("tcp.data_out"))
		})
		if failed != nil {
			return failed
		}
		d.out[c.name] = ratio(ns, segs)
		if c.allocs != "" {
			d.out[c.allocs] = ratio(mallocs, segs)
		}
	}
	{
		const n = 50000
		s, a, b := stackPair(0)
		answered := 0
		d.perCall("vip.ping_ns", "", n, func() {
			for i := 0; i < n; i++ {
				a.Ping(b.IP(), 64, sim.Second, func(ok bool, _ sim.Duration) {
					if ok {
						answered++
					}
				})
				s.RunFor(3 * sim.Millisecond)
			}
		})
		if answered != 3*n {
			return fmt.Errorf("drill: vip.ping_ns answered %d of %d pings", answered, 3*n)
		}
	}
	return nil
}

// ipopDrills times SendIP between two workstations' IPOP nodes joined
// through one router on a zero-latency fabric.
func (d *driller) ipopDrills() error {
	const n = 100000
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("lan")
	cfg := brunet.Config{}
	router := ipop.NewRouter(net.AddHost("r", site, net.Root(), phys.HostConfig{}), brunet.AddrFromString("drill-router"), cfg)
	if err := router.Start(nil); err != nil {
		return err
	}
	boot := ipop.BootURIs(router)
	var ends [2]*ipop.Node
	for i := range ends {
		ends[i] = ipop.New(net.AddHost(fmt.Sprintf("w%d", i), site, net.Root(), phys.HostConfig{}),
			vip.MustParseIP(fmt.Sprintf("172.16.1.%d", 2+i)), cfg)
		if err := ends[i].Start(boot); err != nil {
			return err
		}
		s.RunFor(sim.Second)
	}
	s.RunFor(2 * sim.Minute)
	got := 0
	ends[1].SetReceiver(func(*vip.Packet) { got++ })
	pkt := &vip.Packet{Src: ends[0].VIP(), Dst: ends[1].VIP(), Proto: vip.ProtoUDP, Size: 1428}
	d.perCall("ipop.sendip_ns", "ipop.sendip_allocs", n, func() {
		for i := 0; i < n; i++ {
			ends[0].SendIP(pkt)
			s.RunUntil(s.Now())
		}
	})
	if got != 3*n {
		return fmt.Errorf("drill: ipop.sendip_ns delivered %d of %d packets", got, 3*n)
	}
	return nil
}

func (d *driller) traceDrills() {
	{
		const n = 2000000
		base := trace.HashAddr([]byte("drill-node-address"))
		hits := 0
		d.perCall("trace.unsampled_ns", "", n, func() {
			for i := 0; i < n; i++ {
				if trace.Sampled(trace.SampleHash(base, uint64(i)), 1<<30) {
					hits++
				}
			}
		})
		d.sink += float64(hits)
	}
	const shards, per = 8, 8192
	s := sim.New(1)
	clocks := make([]trace.Clock, shards)
	for i := range clocks {
		clocks[i] = s
	}
	var tr *trace.Tracer
	fill := func() {
		tr = trace.New(trace.Options{SampleN: 16}, clocks...)
		for i := 0; i < per; i++ {
			for sh := 0; sh < shards; sh++ {
				tr.Shard(sh).Append(trace.Record{Stream: "hop", T: int64(i), Trace: uint64(i), Hop: sh})
			}
		}
	}
	d.perCall("trace.append_ns", "", shards*per, fill)
	// Drain empties the buffers, so each round refills them first and
	// only the drain is timed.
	sp := d.sp.begin("drill.trace.drain_ns_per_rec")
	var best float64
	drained := 0
	for i := 0; i < 3; i++ {
		fill()
		t0 := time.Now()
		drained = len(tr.Drain())
		if el := float64(time.Since(t0)); i == 0 || el < best {
			best = el
		}
	}
	sp.end()
	d.out["trace.drain_ns_per_rec"] = best / float64(drained)
}

func (d *driller) metricsDrills() {
	names := make([]string, 60)
	for i := range names {
		names[i] = fmt.Sprintf("layer.counter_%02d", i)
	}
	{
		const n = 4000000
		var c metrics.Counter
		h := c.Handle("route.forwarded")
		d.perCall("metrics.handle_inc_ns", "", n, func() {
			for i := 0; i < n; i++ {
				h.Inc(1)
			}
		})
	}
	{
		const n = 2000000
		var c metrics.Counter
		for _, name := range names {
			c.Inc(name, 1)
		}
		d.perCall("metrics.string_inc_ns", "", n, func() {
			for i := 0; i < n; i++ {
				c.Inc(names[i%len(names)], 1)
			}
		})
	}
	{
		const n = 2000000
		h := metrics.NewLogHistogram(1e-6, 2, 40)
		d.perCall("metrics.loghist_add_ns", "", n, func() {
			for i := 0; i < n; i++ {
				h.Add(float64(i%100000+1) * 1e-6)
			}
		})
	}
	{
		const k, rounds = 8, 200
		sh := metrics.NewSharded(k)
		for i := 0; i < k; i++ {
			for _, name := range names {
				sh.Shard(i).Inc(name, int64(i+1))
			}
		}
		var total int64
		d.perCall("metrics.sharded_merge_ns", "", rounds, func() {
			for r := 0; r < rounds; r++ {
				m := sh.Merged()
				total += m.Get(names[0])
			}
		})
		d.sink += float64(total)
	}
}

// faultsDrills times the network's Perturb hook with four windows active
// that do not match the packet's path: the scan every packet pays while a
// schedule is armed.
func (d *driller) faultsDrills() {
	const n = 1000000
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	a := net.AddHost("a", net.AddSite("a"), net.Root(), phys.HostConfig{})
	b := net.AddHost("b", net.AddSite("b"), net.Root(), phys.HostConfig{})
	inj := faults.New(s, net)
	defer inj.Close()
	for i := 0; i < 4; i++ {
		inj.Schedule(faults.LatencyBurst{
			Name: fmt.Sprintf("w%d", i), Scope: faults.AtSites(fmt.Sprintf("elsewhere%d", i)), Extra: sim.Millisecond,
		})
	}
	s.RunFor(sim.Second)
	pm := phys.PathModel{OneWay: sim.Millisecond}
	d.perCall("faults.perturb_ns", "", n, func() {
		for i := 0; i < n; i++ {
			pm, _ = net.Perturb(a, b, pm)
		}
	})
}

// runDrills runs every layer's drills and returns their figures by metric
// name.
func runDrills(sp *spanRec) (map[string]float64, error) {
	d := &driller{sp: sp, out: make(map[string]float64)}
	d.simDrills()
	d.physDrills()
	if err := d.natsimDrills(); err != nil {
		return nil, fmt.Errorf("natsim drill: %w", err)
	}
	if err := d.brunetDrills(); err != nil {
		return nil, fmt.Errorf("brunet drill: %w", err)
	}
	if err := d.ipopDrills(); err != nil {
		return nil, fmt.Errorf("ipop drill: %w", err)
	}
	if err := d.vipDrills(); err != nil {
		return nil, fmt.Errorf("vip drill: %w", err)
	}
	d.traceDrills()
	d.metricsDrills()
	d.faultsDrills()
	return d.out, nil
}
