package phys

import (
	"testing"

	"wow/internal/sim"
)

// probe is a payload that records every Discard: the Simulator of the
// shard each one ran on.
type probe struct {
	discards []*sim.Simulator
}

func (p *probe) Discard(s *sim.Simulator) { p.discards = append(p.discards, s) }

// discardRig is a network of two shards: a sender on shard 0 and, on shard
// 1, a public receiver with port 7 bound and a CPU that queues at most a
// millisecond of its 10 ms service time, and a NAT realm that has mapped
// nothing yet.
type discardRig struct {
	eng     *sim.Sharded
	net     *Network
	a, b    *Host
	sock    *UDPSock
	natIP   IP
	arrived []*probe
}

func newDiscardRig(t *testing.T) *discardRig {
	t.Helper()
	eng := sim.NewSharded(3, 2, 1)
	t.Cleanup(eng.Close)
	net := NewShardedNetwork(eng, lanWan())
	sa, sb := net.AddSite("a"), net.AddSite("b")
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	r := &discardRig{eng: eng, net: net}
	r.a = net.AddHost("a", sa, net.Root(), HostConfig{})
	r.b = net.AddHost("b", sb, net.Root(), HostConfig{ServiceTime: 10 * sim.Millisecond, QueueLimit: sim.Millisecond})
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	net.AddHost("inside", sb, lan, HostConfig{})
	r.natIP = nat.public
	if r.a.Shard() != 0 || r.b.Shard() != 1 || lan.shard() != 1 {
		t.Fatalf("sender on shard %d, receiver and NAT realm on %d and %d; want 0, 1 and 1", r.a.Shard(), r.b.Shard(), lan.shard())
	}
	bs, err := r.b.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	bs.OnRecv = func(p *Packet) { r.arrived = append(r.arrived, p.Payload.(*probe)) }
	r.sock, err = r.a.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDropDiscardsPayload: whichever of the seven reasons loses a packet,
// the physical layer hands its payload back once, on the shard the drop runs
// on — the sender's for a loss on the way out, the receiving host's or the
// NAT chain's for one at arrival — and a delivered payload never.
func TestDropDiscardsPayload(t *testing.T) {
	const sender, receiver = 0, 1
	for _, tc := range []struct {
		name  string
		lost  string
		sends int
		shard int
		arm   func(r *discardRig) Endpoint // readies the loss, returns the destination
	}{
		{"wire", "lost.wire", 1, sender, func(r *discardRig) Endpoint {
			r.net.Perturb = func(_, _ *Host, pm PathModel) (PathModel, bool) { pm.Loss = 1; return pm, false }
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
		{"fault", "lost.fault", 1, sender, func(r *discardRig) Endpoint {
			r.net.Perturb = func(_, _ *Host, pm PathModel) (PathModel, bool) { return pm, true }
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
		{"noroute", "lost.noroute", 1, sender, func(r *discardRig) Endpoint {
			return Endpoint{IP: MustParseIP("203.0.113.9"), Port: 7}
		}},
		{"boundary", "lost.boundary", 1, receiver, func(r *discardRig) Endpoint {
			return Endpoint{IP: r.natIP, Port: 999}
		}},
		{"hostdown at send", "lost.hostdown", 1, sender, func(r *discardRig) Endpoint {
			r.b.SetUp(false)
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
		{"hostdown at arrival", "lost.hostdown", 1, receiver, func(r *discardRig) Endpoint {
			r.eng.Shard(1).At(sim.Time(5*sim.Millisecond), func() { r.b.SetUp(false) })
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
		{"hostdown in service", "lost.hostdown", 1, receiver, func(r *discardRig) Endpoint {
			r.eng.Shard(1).At(sim.Time(25*sim.Millisecond), func() { r.b.SetUp(false) })
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
		{"noport", "lost.noport", 1, receiver, func(r *discardRig) Endpoint {
			return Endpoint{IP: r.b.IP(), Port: 9}
		}},
		{"overload", "lost.overload", 3, receiver, func(r *discardRig) Endpoint {
			return Endpoint{IP: r.b.IP(), Port: 7}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDiscardRig(t)
			dst := tc.arm(r)
			sent := make([]*probe, tc.sends)
			r.eng.Shard(0).At(0, func() {
				for i := range sent {
					sent[i] = &probe{}
					r.sock.Send(dst, 100, sent[i])
				}
			})
			r.eng.RunUntil(sim.Time(sim.Second))
			lost := stat(r.net, tc.lost)
			if lost+int64(len(r.arrived)) != int64(tc.sends) || lost == 0 {
				t.Fatalf("%d sent, %d arrived, %s = %d; stats %s", tc.sends, len(r.arrived), tc.lost, lost, statsString(r.net))
			}
			arrived := make(map[*probe]bool)
			for _, p := range r.arrived {
				arrived[p] = true
			}
			discarded := 0
			for i, p := range sent {
				switch {
				case arrived[p] && len(p.discards) != 0:
					t.Errorf("payload %d arrived and was discarded %d times", i, len(p.discards))
				case !arrived[p] && len(p.discards) != 1:
					t.Errorf("payload %d was lost and discarded %d times, want once", i, len(p.discards))
				}
				for _, s := range p.discards {
					if s != r.eng.Shard(tc.shard) {
						t.Errorf("payload %d discarded on the wrong shard, want shard %d", i, tc.shard)
					}
				}
				discarded += len(p.discards)
			}
			if int64(discarded) != lost {
				t.Errorf("%d discards for %d losses", discarded, lost)
			}
		})
	}
}

// TestStreamLossKeepsPayload: a stream segment the wire loses is not its
// message's end — the stream sends the message again from its
// retransmission buffer — so the physical layer discards nothing a stream
// carries, however many of its segments it loses.
func TestStreamLossKeepsPayload(t *testing.T) {
	s, net, h1, h2 := streamRig(5, 0.3)
	var got []*probe
	if _, err := h2.ListenStream(7000, func(st *Stream) {
		st.OnMessage(func(_ int, msg any) { got = append(got, msg.(*probe)) })
	}); err != nil {
		t.Fatal(err)
	}
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	sent := make([]*probe, 40)
	for i := range sent {
		sent[i] = &probe{}
		st.SendMsg(100, sent[i])
	}
	s.RunFor(5 * sim.Minute)
	if len(got) != len(sent) || stat(net, "lost.wire") == 0 {
		t.Fatalf("%d of %d messages arrived, %d segments lost: the test would be vacuous", len(got), len(sent), stat(net, "lost.wire"))
	}
	for i, p := range sent {
		if got[i] != p {
			t.Fatalf("message %d arrived out of order", i)
		}
		if len(p.discards) != 0 {
			t.Errorf("message %d, carried by a stream, was discarded %d times", i, len(p.discards))
		}
	}
}
