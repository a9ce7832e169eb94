// Package testbed reconstructs the paper's experimental deployment
// (Figure 1, Table I): 33 compute VMs across six firewalled domains — 15
// at UFL behind a no-hairpin campus NAT, 13 at Northwestern behind a
// firewall, 2 at LSU, 1 each at ncgrid (firewall with a single open UDP
// port), VIMS, and a home network behind three nested NATs — plus 118
// Brunet router nodes on 20 heavily loaded PlanetLab hosts that form the
// public bootstrap overlay.
//
// Path latencies, host service rates and NAT semantics are calibrated to
// the paper's own measurements: ~38 ms direct UFL-NWU RTT, ~146 ms
// multi-hop RTT through loaded PlanetLab routers, ~1.6 MB/s user-level
// tunnel processing ceiling, and the hairpin behaviours that produce the
// three join regimes of Figure 5.
//
// The package also holds WOW, the one way to assemble routers and virtual
// workstations into a wide-area overlay network on any simulated physical
// topology; Testbed is a WOW on the Figure 1 topology.
package testbed

import (
	"fmt"
	"hash/fnv"

	"wow/internal/brunet"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vm"
)

// NodeDef is one Table I row.
type NodeDef struct {
	Name string
	// VIP is the last octet of the 172.16.1.x virtual address.
	VIP int
	// Site is the physical domain.
	Site string
	// Speed is the host CPU speed relative to node002's 2.4 GHz Xeon.
	Speed float64
}

// TableI lists the 33 compute nodes exactly as the paper's Table I does.
// Speeds follow the hardware column: 2.4 GHz Xeon = 1.0 (node002-016),
// 2.0 GHz Xeon = 0.83 (node017-029, NWU), 3.2 GHz Xeon = 1.33
// (node030-031 LSU, node033 VIMS), 1.3 GHz Pentium III = 0.45 (node032,
// ncgrid), 1.7 GHz Pentium 4 = 0.49 (node034, home; the ratio of the
// paper's sequential fastDNAml runs, 22272s/45191s).
func TableI() []NodeDef {
	var defs []NodeDef
	add := func(name string, vipOctet int, site string, speed float64) {
		defs = append(defs, NodeDef{Name: name, VIP: vipOctet, Site: site, Speed: speed})
	}
	add("node002", 2, "ufl.edu", 1.0)
	for i := 3; i <= 16; i++ {
		add(fmt.Sprintf("node%03d", i), i, "ufl.edu", 1.0)
	}
	for i := 17; i <= 29; i++ {
		add(fmt.Sprintf("node%03d", i), i, "northwestern.edu", 0.83)
	}
	add("node030", 30, "lsu.edu", 1.33)
	add("node031", 31, "lsu.edu", 1.33)
	add("node032", 32, "ncgrid.org", 0.45)
	add("node033", 33, "vims.edu", 1.33)
	add("node034", 34, "gru.net", 0.49)
	return defs
}

// ComputeSites lists the six compute domains.
var ComputeSites = []string{"ufl.edu", "northwestern.edu", "lsu.edu", "ncgrid.org", "vims.edu", "gru.net"}

// Config parameterizes testbed construction.
type Config struct {
	Seed int64
	// Shortcuts enables the ShortcutConnectionOverlord on compute nodes
	// (the paper's headline comparison toggles this).
	Shortcuts bool
	// PlanetLabHosts and Routers size the bootstrap overlay; the paper
	// used 118 routers on 20 hosts.
	PlanetLabHosts int
	Routers        int
	// Brunet overrides the protocol constants; zero-value fields take
	// paper defaults.
	Brunet brunet.Config
	// SettleTime is how long to run after construction before the
	// testbed is handed over; covers router ring convergence and VM
	// joins. Zero means 10 virtual minutes.
	SettleTime sim.Duration
	// SkipVMs builds only the router overlay (used by join-latency
	// experiments that add VMs themselves).
	SkipVMs bool
}

func (c *Config) fillDefaults() {
	if c.PlanetLabHosts == 0 {
		c.PlanetLabHosts = 20
	}
	if c.Routers == 0 {
		c.Routers = 118
	}
	if c.SettleTime == 0 {
		c.SettleTime = 10 * sim.Minute
	}
}

// Testbed is the assembled deployment: a WOW on the Figure 1 topology.
type Testbed struct {
	// WOW is the overlay network of virtual workstations; its
	// Workstations are the Table I nodes in order, then any added later.
	*WOW
	Cfg Config
	Sim *sim.Simulator
	Net *phys.Network

	sites    map[string]*phys.Site
	vmRealms map[string]*phys.Realm
	byName   map[string]*vm.VM
	plHosts  []*phys.Host
	nextVIP  int
}

// latency returns the one-way delay between two sites: 0.3 ms inside a
// site, 19 ms between UFL and NWU (the paper's ~38 ms direct RTT), and a
// deterministic pseudo-random 10-35 ms otherwise.
func latency(a, b *phys.Site) phys.PathModel {
	if a == b {
		return phys.PathModel{OneWay: 300 * sim.Microsecond, Jitter: 50 * sim.Microsecond}
	}
	x, y := a.Name, b.Name
	if x > y {
		x, y = y, x
	}
	if x == "northwestern.edu" && y == "ufl.edu" {
		return phys.PathModel{OneWay: 19 * sim.Millisecond, Jitter: sim.Millisecond, Loss: 0.0005}
	}
	h := fnv.New32a()
	h.Write([]byte(x))
	h.Write([]byte{0})
	h.Write([]byte(y))
	ms := 10 + h.Sum32()%26 // 10..35 ms
	return phys.PathModel{
		OneWay: sim.Duration(ms) * sim.Millisecond,
		Jitter: sim.Millisecond,
		Loss:   0.001,
	}
}

// computeHostCfg models a compute VM host: the ~1.6 MB/s user-level
// tunnel-processing ceiling the paper attributes to user/kernel copies
// (§VI), split between send serialization and receive CPU.
func computeHostCfg() phys.HostConfig {
	return phys.HostConfig{
		ServiceTime: 400 * sim.Microsecond,
		Bandwidth:   1.7e6,
		QueueLimit:  250 * sim.Millisecond,
	}
}

// Build constructs the testbed and runs the simulator until the overlay
// has settled. It stands on the sharded engine at one shard, which is the
// serial engine: Sim is the engine's only shard, and no packet ever crosses
// shards, so none is handed to the engine.
func Build(cfg Config) *Testbed {
	cfg.fillDefaults()
	eng := sim.NewSharded(cfg.Seed, 1, 1)
	s := eng.Shard(0)
	net := phys.NewShardedNetwork(eng, latency)
	tb := &Testbed{
		WOW: NewWOW(Options{
			Shortcuts: cfg.Shortcuts,
			Brunet:    cfg.Brunet,
		}),
		Cfg:      cfg,
		Sim:      s,
		Net:      net,
		sites:    make(map[string]*phys.Site),
		vmRealms: make(map[string]*phys.Realm),
		byName:   make(map[string]*vm.VM),
		nextVIP:  35,
	}
	tb.buildPlanetLab()
	tb.buildComputeDomains()
	if !cfg.SkipVMs {
		for _, def := range TableI() {
			tb.addVM(def)
			s.RunFor(3 * sim.Second)
		}
	}
	s.RunFor(cfg.SettleTime)
	return tb
}

// buildPlanetLab stands up the 118-router bootstrap overlay on 20 loaded
// public hosts spread over wide-area sites.
func (tb *Testbed) buildPlanetLab() {
	cfg := tb.Cfg
	rng := tb.Sim.Rand()
	for h := 0; h < cfg.PlanetLabHosts; h++ {
		site := tb.site(fmt.Sprintf("planetlab%02d", h))
		// Heavily and unevenly loaded: §IV-E's "highly loaded
		// PlanetLab nodes" with 1600 ms worst-case latencies.
		load := 4 + rng.Float64()*8
		host := tb.Net.AddHost(fmt.Sprintf("pl%02d", h), site, tb.Net.Root(), phys.HostConfig{
			ServiceTime: 1500 * sim.Microsecond,
			LoadFactor:  load,
			Bandwidth:   5e6,
			QueueLimit:  400 * sim.Millisecond,
		})
		tb.plHosts = append(tb.plHosts, host)
	}
	for i := 0; i < cfg.Routers; i++ {
		host := tb.plHosts[i%len(tb.plHosts)]
		if _, err := tb.AddRouter(host, fmt.Sprintf("plab-%03d", i)); err != nil {
			panic(fmt.Sprintf("testbed: %v", err))
		}
		tb.Sim.RunFor(sim.Second)
	}
}

// buildComputeDomains creates the six firewalled domains of Figure 1.
func (tb *Testbed) buildComputeDomains() {
	now := tb.Sim.Now
	root := tb.Net.Root()

	// ufl.edu: campus NAT without hairpin support (§V-B), VMware GSX
	// NAT (hairpin) inside.
	uflNAT := natsim.NewNAT("UFNAT", natsim.Config{Type: natsim.PortRestricted, Hairpin: false}, root.NextIP(), now)
	uflLAN := tb.Net.AddRealm("ufl-lan", root, uflNAT, phys.MustParseIP("10.1.0.10"))
	uflVMware := natsim.NewNAT("ufl-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, uflLAN.NextIP(), now)
	tb.vmRealms["ufl.edu"] = tb.Net.AddRealm("ufl-vmnet", uflLAN, uflVMware, phys.MustParseIP("192.168.10.10"))

	// northwestern.edu: stateful firewall, VMware GSX NAT inside.
	fw := func(name string, allow ...uint16) *natsim.Firewall { return natsim.NewFirewall(name, 0, now, allow...) }
	nwuLAN := tb.Net.AddRealm("nwu-lan", root, fw("NWFW"), phys.MustParseIP("129.105.10.10"))
	nwuVMware := natsim.NewNAT("nwu-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, nwuLAN.NextIP(), now)
	tb.vmRealms["northwestern.edu"] = tb.Net.AddRealm("nwu-vmnet", nwuLAN, nwuVMware, phys.MustParseIP("192.168.20.10"))

	// lsu.edu and vims.edu: firewalls with VMware NATs.
	lsuLAN := tb.Net.AddRealm("lsu-lan", root, fw("LFW"), phys.MustParseIP("130.39.10.10"))
	lsuVMware := natsim.NewNAT("lsu-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, lsuLAN.NextIP(), now)
	tb.vmRealms["lsu.edu"] = tb.Net.AddRealm("lsu-vmnet", lsuLAN, lsuVMware, phys.MustParseIP("192.168.30.10"))

	vimsLAN := tb.Net.AddRealm("vims-lan", root, fw("VFW"), phys.MustParseIP("139.70.10.10"))
	vimsVMware := natsim.NewNAT("vims-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, vimsLAN.NextIP(), now)
	tb.vmRealms["vims.edu"] = tb.Net.AddRealm("vims-vmnet", vimsLAN, vimsVMware, phys.MustParseIP("192.168.40.10"))

	// ncgrid.org: firewall with a single UDP port opened for IPOP
	// (§V-A), VMPlayer NAT inside.
	ncLAN := tb.Net.AddRealm("nc-lan", root, fw("NCFW", 40000), phys.MustParseIP("152.54.10.10"))
	ncVMware := natsim.NewNAT("nc-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, ncLAN.NextIP(), now)
	tb.vmRealms["ncgrid.org"] = tb.Net.AddRealm("nc-vmnet", ncLAN, ncVMware, phys.MustParseIP("192.168.50.10"))

	// gru.net: home desktop behind ISP NAT, wireless router NAT and
	// VMware NAT — three nested levels.
	ispNAT := natsim.NewNAT("gru-isp", natsim.Config{Type: natsim.PortRestricted, Hairpin: false}, root.NextIP(), now)
	ispRealm := tb.Net.AddRealm("gru-isp", root, ispNAT, phys.MustParseIP("100.64.0.10"))
	wifiNAT := natsim.NewNAT("gru-wifi", natsim.Config{Type: natsim.PortRestricted, Hairpin: false}, ispRealm.NextIP(), now)
	wifiRealm := tb.Net.AddRealm("gru-wifi", ispRealm, wifiNAT, phys.MustParseIP("192.168.1.10"))
	gruVMware := natsim.NewNAT("gru-vmnat", natsim.Config{Type: natsim.PortRestricted, Hairpin: true}, wifiRealm.NextIP(), now)
	tb.vmRealms["gru.net"] = tb.Net.AddRealm("gru-vmnet", wifiRealm, gruVMware, phys.MustParseIP("172.20.0.10"))
}

func (tb *Testbed) site(name string) *phys.Site {
	if s, ok := tb.sites[name]; ok {
		return s
	}
	s := tb.Net.AddSite(name)
	tb.sites[name] = s
	return s
}

// addVM instantiates and boots one Table I node.
func (tb *Testbed) addVM(def NodeDef) *vm.VM {
	host := tb.Net.AddHost(def.Name+"-host", tb.site(def.Site), tb.vmRealms[def.Site], computeHostCfg())
	spec := vm.Spec{Name: def.Name, CPUSpeed: def.Speed}
	bcfg := tb.Cfg.Brunet
	if def.Site == "ncgrid.org" {
		// The ncgrid firewall has exactly one UDP port opened for
		// IPOP traffic (§V-A); the node must bind it.
		bcfg.Port = 40000
	}
	v, err := tb.AddWorkstationCfg(host, vip.MustParseIP(fmt.Sprintf("172.16.1.%d", def.VIP)), spec, bcfg)
	if err != nil {
		panic(fmt.Sprintf("testbed: vm %s: %v", def.Name, err))
	}
	tb.byName[def.Name] = v
	return v
}

// VM returns a compute node by Table I name (e.g. "node002").
func (tb *Testbed) VM(name string) *vm.VM { return tb.byName[name] }

// Head returns node002, the PBS/NFS head node of the paper's experiments.
func (tb *Testbed) Head() *vm.VM { return tb.byName["node002"] }

// NewVM adds an extra compute node at a Table I site with a fresh virtual
// IP; used by the join experiments. speed defaults to 1.
func (tb *Testbed) NewVM(site string, speed float64) *vm.VM {
	if speed == 0 {
		speed = 1
	}
	def := NodeDef{
		Name:  fmt.Sprintf("node%03d", tb.nextVIP),
		VIP:   tb.nextVIP,
		Site:  site,
		Speed: speed,
	}
	tb.nextVIP++
	return tb.addVM(def)
}

// NewHostAt provisions a fresh physical VM host at a compute site —
// migration destinations.
func (tb *Testbed) NewHostAt(siteName string) *phys.Host {
	h := tb.Net.AddHost(
		fmt.Sprintf("%s-extra-%d", siteName, tb.nextVIP),
		tb.site(siteName), tb.vmRealms[siteName], computeHostCfg(),
	)
	tb.nextVIP++
	return h
}
