// Package wow reproduces "WOW: Self-Organizing Wide Area Overlay Networks
// of Virtual Workstations" (Ganguly, Agrawal, Boykin, Figueiredo; HPDC
// 2006) as a Go library: a Brunet-style structured P2P overlay with
// decentralized NAT traversal and adaptive shortcut connections
// (internal/brunet), IP-over-P2P virtual networking (internal/ipop), a
// guest virtual IP stack (internal/vip), virtual workstations with
// wide-area migration (internal/vm), the cluster middleware the paper ran
// unmodified — PBS, NFS, SCP, PVM (internal/middleware) — and the
// simulated physical substrate standing in for the paper's PlanetLab +
// six-domain testbed (internal/phys, internal/natsim, internal/testbed).
//
// The public entry point is internal/testbed.WOW; see examples/ for
// runnable scenarios and bench_test.go for benchmarks regenerating every
// table and figure of the paper's evaluation.
package wow
