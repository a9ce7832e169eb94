package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"wow/internal/brunet"
	"wow/internal/faults"
	"wow/internal/ipop"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vip"
	"wow/internal/vm"
	"wow/internal/workloads"
)

// wowOpts sizes the wow_transfer workload.
type wowOpts struct {
	routers int
	plHosts int
	// settle is the testbed's own settle; symSettle is granted after the
	// symmetric-NAT workstations join, long enough for linking to exhaust
	// its URIs toward a ring neighbour it cannot reach and fall back to a
	// tunnel edge (about 155 s per dead URI with the paper's constants).
	settle, symSettle sim.Duration
	warm              sim.Duration // shortcut warm-up: one ping a second on every pair
	transfers         int
	// directBytes is the transfer size on pairs that talk over a one-hop
	// shortcut; relayedBytes on pairs whose packets cross several loaded
	// routers or a tunnel relay. A relayed byte costs about ten times the
	// events of a direct one, so
	// relayed transfers are kept a small share of the run.
	directBytes, relayedBytes int64
	pings                     int // ping train before each transfer
	crashes                   int // routers crash-restarted by the fault schedule
	down                      sim.Duration
	repair                    sim.Duration // repair window after the fault schedule
}

func defaultWowOpts() wowOpts {
	return wowOpts{
		routers: 118, plHosts: 20,
		settle: 5 * sim.Minute, symSettle: 20 * sim.Minute, warm: 10 * sim.Minute,
		transfers: 64, directBytes: 8 << 20, relayedBytes: 256 << 10,
		pings: 20, crashes: 12, down: 60 * sim.Second, repair: 4 * sim.Minute,
	}
}

// pair is one sender/receiver couple of the transfer round-robin.
type pair struct {
	name     string
	src, dst *vm.VM
	bytes    int64
}

// wowTransfer is the wow_transfer workload: the paper's testbed plus eight
// workstations behind symmetric NATs, placed in ring-adjacent couples so
// their near links need tunnel edges.
type wowTransfer struct {
	o     wowOpts
	tb    *testbed.Testbed
	syms  []*vm.VM
	nats  []*natsim.NAT
	pairs []pair
	inj   *faults.Injector
	rx    *sink
	// restartFailed counts routers the fault schedule could not restart.
	restartFailed int
	// goodput and pingMs collect the simulated outcomes of the timed
	// phase: per-transfer KB/s and per-answered-ping RTT.
	goodput, pingMs []float64
}

func newWowTransfer(o wowOpts) *wowTransfer { return &wowTransfer{o: o} }

// adjacentVIPs picks n couples of virtual IPs whose overlay addresses are
// closer to each other than to anything else likely to be on the ring, so
// each couple are ring neighbours. Candidates come from a seeded shuffle
// of 172.16.{2..17}.x.
func adjacentVIPs(seed int64, n int) [][2]vip.IP {
	type cand struct {
		ip   vip.IP
		addr brunet.Addr
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51a7))
	cands := make([]cand, 0, 2000)
	for _, i := range rng.Perm(16 * 250)[:2000] {
		ip := vip.MustParseIP(fmt.Sprintf("172.16.%d.%d", 2+i/250, 1+i%250))
		cands = append(cands, cand{ip, ipop.AddrForVIP(ip)})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].addr.Less(cands[b].addr) })
	type gap struct {
		i int
		d float64
	}
	gaps := make([]gap, 0, len(cands)-1)
	for i := 0; i+1 < len(cands); i++ {
		gaps = append(gaps, gap{i, cands[i+1].addr.Float64() - cands[i].addr.Float64()})
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a].d < gaps[b].d })
	var out [][2]vip.IP
	used := make(map[int]bool)
	for _, g := range gaps {
		if used[g.i] || used[g.i+1] {
			continue
		}
		used[g.i], used[g.i+1] = true, true
		out = append(out, [2]vip.IP{cands[g.i].ip, cands[g.i+1].ip})
		if len(out) == n {
			break
		}
	}
	return out
}

// addSym boots one workstation behind its own symmetric NAT at its own
// site.
func (w *wowTransfer) addSym(i int, ip vip.IP) error {
	tb := w.tb
	name := fmt.Sprintf("sym%02d", i)
	site := tb.Net.AddSite(name + ".example")
	nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric}, tb.Net.Root().NextIP(), tb.Sim.Now)
	realm := tb.Net.AddRealm(name+"-lan", tb.Net.Root(), nat, phys.MustParseIP("10.77.0.10"))
	host := tb.Net.AddHost(name+"-host", site, realm, phys.HostConfig{
		ServiceTime: 400 * sim.Microsecond, Bandwidth: 1.7e6, QueueLimit: 250 * sim.Millisecond,
	})
	v, err := tb.WOW.AddWorkstation(host, ip, vm.Spec{Name: name})
	if err != nil {
		return err
	}
	w.syms = append(w.syms, v)
	w.nats = append(w.nats, nat)
	return nil
}

func (w *wowTransfer) setup(x *rep) error {
	o := w.o
	s := x.sp.begin("fabric")
	w.tb = testbed.Build(testbed.Config{
		Seed: worldSeed, Shortcuts: true, Routers: o.routers, PlanetLabHosts: o.plHosts, SettleTime: o.settle,
	})
	s.end()

	s = x.sp.begin("boot")
	defer s.end()
	tb := w.tb
	for i, c := range adjacentVIPs(worldSeed, 4) {
		for j, ip := range c {
			x.calibrate()
			if err := w.addSym(2*i+j, ip); err != nil {
				return err
			}
			tb.Sim.RunFor(3 * sim.Second)
		}
	}
	w.runFor(x, o.symSettle)

	direct, relayed := o.directBytes, o.relayedBytes
	w.pairs = []pair{
		{"ufl-ufl", tb.VM("node003"), tb.VM("node004"), direct},
		{"ufl-nwu", tb.VM("node005"), tb.VM("node017"), direct},
		{"nwu-lsu", tb.VM("node018"), tb.VM("node030"), direct},
		{"home-vims", tb.VM("node034"), tb.VM("node033"), direct},
		{"ncgrid-ufl", tb.VM("node032"), tb.VM("node006"), direct},
		{"sym-ufl", w.syms[0], tb.VM("node007"), relayed},
		{"sym-sym-a", w.syms[2], w.syms[3], relayed},
		{"sym-sym-b", w.syms[4], w.syms[5], relayed},
	}
	for _, p := range w.pairs {
		if err := serveSink(p.dst.Stack(), func() *sink { return w.rx }); err != nil {
			return err
		}
	}
	w.inj = faults.New(tb.Sim, tb.Net)
	w.pingAll(x, o.warm)
	x.opNs = make([]float64, 0, o.transfers)
	return nil
}

// runFor advances the testbed by d a virtual minute at a time, with a
// calibration call before each.
func (w *wowTransfer) runFor(x *rep, d sim.Duration) {
	for d > 0 {
		step := sim.Minute
		if step > d {
			step = d
		}
		x.calibrate()
		w.tb.Sim.RunFor(step)
		d -= step
	}
}

// pingAll sends one ping a second on every pair for d: the traffic that
// makes the shortcut overlord link a pair directly, before the run and
// again after the fault schedule.
func (w *wowTransfer) pingAll(x *rep, d sim.Duration) {
	tick := w.tb.Sim.Tick(sim.Second, 0, func() {
		for _, p := range w.pairs {
			p.src.Stack().Ping(p.dst.IP(), 64, 2*sim.Second, func(bool, sim.Duration) {})
		}
	})
	w.runFor(x, d)
	tick.Stop()
}

// pingTrain sends the pre-transfer ping train and reports whether the
// path answered: at least half the echoes came back. A single lost echo
// is the path model's loss rate (0.5 % of them on this testbed), not a
// failed operation — counting echoes would fail operations on every seed —
// so the train is the checked operation, and it fails when the path is
// down. The echo loss itself is per-layer: vip.icmp_timeout over
// vip.icmp_sent.
func (w *wowTransfer) pingTrain(p pair) bool {
	s := w.tb.Sim
	answered := 0
	for k := 0; k < w.o.pings; k++ {
		p.src.Stack().Ping(p.dst.IP(), 64, 2*sim.Second, func(ok bool, rtt sim.Duration) {
			if ok {
				answered++
				w.pingMs = append(w.pingMs, rtt.Seconds()*1e3)
			}
		})
		s.RunFor(100 * sim.Millisecond)
	}
	s.RunFor(2 * sim.Second)
	if 2*answered < w.o.pings {
		fmt.Fprintf(os.Stderr, "bench: wow_transfer: %v ping train %s: %d of %d answered\n", s.Now(), p.name, answered, w.o.pings)
		return false
	}
	return true
}

// transferDeadline bounds how long one transfer may take in virtual time.
const transferDeadline = 20 * sim.Minute

// sink is the receiving end of the transfer in flight. Transfers are
// sequential, so one sink serves every listener.
type sink struct {
	bytes  int64
	closed bool
}

// serveSink installs a ttcp sink on the stack that reports into the sink
// cur returns when a connection is accepted: bytes as they are delivered in
// order, and the close that follows the sender's FIN.
func serveSink(stack *vip.Stack, cur func() *sink) error {
	return stack.ListenTCP(workloads.TTCPPort, func(c *vip.Conn) {
		rx := cur()
		c.OnMessage(func(size int, _ any) { rx.bytes += int64(size) })
		c.OnClose(func(error) { rx.closed = true })
	})
}

// transfer drives one TTCP transfer until the receiver has consumed the
// whole stream and its close, and checks that every byte arrived.
// Completion is taken at the receiver because the sender's own callback
// can stay silent for two virtual hours: after a retransmission timeout
// that follows its first FIN, vip's sender never sends the FIN again and
// only its keepalive ends the connection, although every byte was
// delivered and acknowledged.
func (w *wowTransfer) transfer(x *rep, p pair) {
	s := w.tb.Sim
	w.rx = &sink{}
	start := s.Now()
	workloads.TTCP(p.src.Stack(), p.dst.IP(), p.bytes, func(workloads.TTCPResult) {})
	deadline := start.Add(transferDeadline)
	for !w.rx.closed && s.Now() < deadline {
		s.RunFor(250 * sim.Millisecond)
	}
	elapsed := s.Now().Sub(start)
	ok := w.rx.closed && w.rx.bytes == p.bytes
	x.mustf(ok, "%v transfer %s: closed %v, %d of %d bytes after %v", s.Now(), p.name, w.rx.closed, w.rx.bytes, p.bytes, elapsed)
	if ok {
		w.goodput = append(w.goodput, float64(p.bytes)/1024/elapsed.Seconds())
	}
}

// victims picks the routers the fault schedule crashes. The first is the
// relay in use on a symmetric workstation's tunnel edge that has another
// relay to fail over to, so a tunnel loses its relay and the traffic that
// follows rides the repair; the rest are every ninth router of the
// deployment. Spared are the three bootstrap routers, which the restarts
// rejoin through, and any router that is the only relay of a tunnel edge:
// with its sole relay gone an edge stays dead for up to twenty virtual
// minutes after the relay is back (a defect of the stack, README "Defects
// found"), and a benchmark workload is one on which no operation fails.
//
// The victims are not drawn from the seed, and neither is anything else in
// this workload: its TCP dynamics amplify any change of event order — the
// order of the crashes alone — into a 1-2 % move of every count, which the
// counts' 1 % bound cannot absorb across seeds.
func (w *wowTransfer) victims() []*ipop.Node {
	routers := w.tb.Routers()[3:]
	index := make(map[brunet.Addr]int, len(routers))
	for i, r := range routers {
		index[r.Addr()] = i
	}
	spared := make(map[int]bool)
	first := -1
	for _, v := range w.syms {
		for _, c := range v.Node().Overlay().Connections() {
			if len(c.Relays) == 1 {
				if i, ok := index[c.Relays[0]]; ok {
					spared[i] = true
				}
			}
		}
	}
	for _, v := range w.syms {
		for _, c := range v.Node().Overlay().Connections() {
			if len(c.Relays) < 2 || first >= 0 {
				continue
			}
			if i, ok := index[c.Relays[0]]; ok && !spared[i] {
				first = i
			}
		}
	}
	var out []*ipop.Node
	if first >= 0 {
		out = append(out, routers[first])
	}
	for i := 0; i < len(routers) && len(out) < w.o.crashes; i += 9 {
		if i != first && !spared[i] {
			out = append(out, routers[i])
		}
	}
	return out
}

// churn arms the fault schedule — crash-restart of the victims half a
// second apart and one NAT table flush — then rides one relayed transfer
// through it and grants a repair window.
func (w *wowTransfer) churn(x *rep) {
	tb, o := w.tb, w.o
	var fs []faults.Fault
	for k, r := range w.victims() {
		fs = append(fs, faults.CrashRestart{
			Name: fmt.Sprintf("crash%02d", k),
			At:   sim.Second + sim.Duration(k)*500*sim.Millisecond,
			Down: o.down,
			Kill: r.Stop,
			Restart: func() {
				if err := r.Start(tb.Boot()); err != nil {
					w.restartFailed++
				}
			},
		})
	}
	fs = append(fs, faults.NATFlush{NAT: w.nats[0], At: 5 * sim.Second})
	w.inj.Schedule(fs...)
	w.transfer(x, w.pairs[5])
	w.pingAll(x, o.repair)
}

func (w *wowTransfer) timed(x *rep) error {
	for t := 0; t < w.o.transfers; t++ {
		if t == w.o.transfers/2 {
			s := x.sp.begin("churn")
			w.churn(x)
			s.end()
		}
		p := w.pairs[t%len(w.pairs)]
		x.calibrate()
		s := x.sp.begin("ping")
		x.check(w.pingTrain(p))
		s.end()
		s = x.sp.begin("transfer")
		t0 := time.Now()
		w.transfer(x, p)
		x.opNs = append(x.opNs, float64(time.Since(t0)))
		s.end()
		x.notePending(w.tb.Sim.Pending())
	}
	return nil
}

func (w *wowTransfer) overlay() []*brunet.Node {
	var nodes []*brunet.Node
	for _, r := range w.tb.Routers() {
		nodes = append(nodes, r.Overlay())
	}
	for _, v := range w.tb.WOW.Workstations() {
		if n := v.Node().Overlay(); n != nil {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func (w *wowTransfer) after(x *rep) error {
	// Not checked: a router the fault schedule restarted may still be
	// finding its place when the last transfer ends.
	noteRoutable(x, w.overlay(), false)
	x.check(w.restartFailed == 0)
	x.hopsFwd, x.hopsDel = x.delta["brunet.route_forwarded"], x.delta["brunet.route_delivered"]
	x.phase["vip.sim_goodput_kBps"] = mean(w.goodput)
	x.phase["vip.sim_ping_ms_p50"] = median(w.pingMs)
	x.phase["faults.timeline_entries"] = float64(len(w.inj.Timeline()))
	// Live mappings now, not a delta: the tables shrink as flows expire.
	var mappings int
	for _, n := range w.nats {
		mappings += n.Mappings()
	}
	x.phase["natsim.mappings"] = float64(mappings)
	return nil
}

func (w *wowTransfer) counters() map[string]float64 {
	c := map[string]float64{"sim.events": float64(w.tb.Sim.Processed)}
	physCounters(c, w.tb.Net.TotalStats())
	brunetCounters(c, w.overlay())
	for _, v := range w.tb.WOW.Workstations() {
		st, ip := &v.Stack().Stats, &v.Node().Stats
		c["ipop.tunnel_out"] += float64(ip.Get("tunnel.out"))
		c["ipop.tunnel_in"] += float64(ip.Get("tunnel.in"))
		c["ipop.misrouted"] += float64(ip.Get("tunnel.misrouted"))
		c["vip.tcp_data_out"] += float64(st.Get("tcp.data_out"))
		c["vip.tcp_rto"] += float64(st.Get("tcp.rto"))
		c["vip.tcp_fast_retransmit"] += float64(st.Get("tcp.fast_retransmit"))
		c["vip.icmp_sent"] += float64(st.Get("icmp.sent"))
		c["vip.icmp_timeout"] += float64(st.Get("icmp.timeout"))
	}
	return c
}

func (w *wowTransfer) members() int { return len(w.tb.Routers()) + len(w.tb.WOW.Workstations()) }

func (w *wowTransfer) close() {
	if w.inj != nil {
		w.inj.Close()
	}
}
