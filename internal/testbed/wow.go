package testbed

import (
	"fmt"

	"wow/internal/brunet"
	"wow/internal/ipop"
	"wow/internal/phys"
	"wow/internal/vip"
	"wow/internal/vm"
)

// bootstrapSize is how many router URIs each joining node is given.
const bootstrapSize = 3

// Options configures a WOW deployment.
type Options struct {
	// Shortcuts enables decentralized direct-connection creation on
	// workstation nodes (§IV-E). The paper's baseline comparisons turn
	// it off.
	Shortcuts bool
	// Brunet sets overlay protocol constants; zero fields take the
	// paper-faithful defaults.
	Brunet brunet.Config
}

// WOW is one wide-area overlay network of virtual workstations, built on
// any simulated physical topology: add router nodes on public hosts to
// form the bootstrap overlay, then add workstations on hosts anywhere —
// behind NATs, firewalls, nested NATs — and they self-organize into one
// virtual private cluster network, the paper's deployment model: "WOW
// allows participants to add resources in a fully decentralized manner
// that imposes very little administrative overhead."
type WOW struct {
	opts    Options
	routers []*ipop.Node
	vms     []*vm.VM
	ips     map[vip.IP]bool
	boot    []brunet.URI
}

// NewWOW creates an empty WOW.
func NewWOW(opts Options) *WOW {
	if !opts.Shortcuts {
		opts.Brunet.Shortcut = nil
	} else if opts.Brunet.Shortcut == nil {
		opts.Brunet.Shortcut = brunet.DefaultShortcutConfig()
	}
	return &WOW{opts: opts, ips: make(map[vip.IP]bool)}
}

// Boot returns the URIs a new node is configured with — "the location of
// at least one IPOP node on the public Internet" (§III-B).
func (w *WOW) Boot() []brunet.URI { return w.boot }

// AddRouter starts an overlay router (no virtual IP) on a public host.
// The first router founds the ring; the paper deployed 118 of these on
// PlanetLab.
func (w *WOW) AddRouter(host *phys.Host, name string) (*ipop.Node, error) {
	cfg := w.opts.Brunet
	cfg.Shortcut = nil
	r := ipop.NewRouter(host, brunet.AddrFromString("wow-router:"+name), cfg)
	if err := r.Start(w.boot); err != nil {
		return nil, fmt.Errorf("wow: router %s: %w", name, err)
	}
	if len(w.boot) < bootstrapSize {
		w.boot = append(w.boot, ipop.BootURIs(r)...)
	}
	w.routers = append(w.routers, r)
	return r, nil
}

// AddWorkstation boots a virtual workstation with the given virtual IP on
// a host (which may sit behind any middlebox chain) and joins it to the
// overlay.
func (w *WOW) AddWorkstation(host *phys.Host, ip vip.IP, spec vm.Spec) (*vm.VM, error) {
	return w.AddWorkstationCfg(host, ip, spec, w.opts.Brunet)
}

// AddWorkstationCfg is AddWorkstation with per-node overlay constants —
// e.g. pinning the UDP port for a site whose firewall opens exactly one
// (the paper's ncgrid.org domain).
func (w *WOW) AddWorkstationCfg(host *phys.Host, ip vip.IP, spec vm.Spec, bcfg brunet.Config) (*vm.VM, error) {
	if w.ips[ip] {
		return nil, fmt.Errorf("wow: virtual IP %s already in use", ip)
	}
	if len(w.boot) == 0 {
		return nil, fmt.Errorf("wow: no routers yet; add at least one AddRouter first")
	}
	if !w.opts.Shortcuts {
		bcfg.Shortcut = nil
	} else if bcfg.Shortcut == nil {
		bcfg.Shortcut = w.opts.Brunet.Shortcut
	}
	v := vm.New(host, ip, spec, bcfg)
	if err := v.Start(w.boot); err != nil {
		return nil, fmt.Errorf("wow: workstation %s: %w", spec.Name, err)
	}
	w.vms = append(w.vms, v)
	w.ips[ip] = true
	return v, nil
}

// Workstations returns all workstations in the order they were added.
func (w *WOW) Workstations() []*vm.VM { return w.vms }

// Routers returns all overlay routers.
func (w *WOW) Routers() []*ipop.Node { return w.routers }

// RoutableWorkstations counts workstations whose overlay node holds ring
// positions.
func (w *WOW) RoutableWorkstations() int {
	n := 0
	for _, v := range w.vms {
		if v.Node().Up() && v.Node().Overlay().IsRoutable() {
			n++
		}
	}
	return n
}

// OverlaySize returns the total number of overlay nodes (routers + live
// workstation nodes).
func (w *WOW) OverlaySize() int {
	n := len(w.routers)
	for _, v := range w.vms {
		if v.Node().Up() {
			n++
		}
	}
	return n
}
