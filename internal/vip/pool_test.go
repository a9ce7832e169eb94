package vip

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wow/internal/sim"
)

// wireEnd is one end of a test wire between two stacks that schedules an
// arrival without allocating (pipeCarrier builds a closure per packet), and
// that can lose, hold back and copy what it carries by rule rather than by
// chance, so that two runs of one program see the same wire.
type wireEnd struct {
	ip        IP
	s         *sim.Simulator
	peer      *wireEnd
	recv      func(*Packet)
	latency   sim.Duration
	deliverFn func(any)

	dropEvery int          // every dropEvery-th packet sent from this end is lost
	lateEvery int          // every lateEvery-th is held back by lateBy: what follows overtakes it
	lateBy    sim.Duration //
	ackDelay  sim.Duration // added to the way of a TCP segment without payload: ACKs above all
	gcOwned   bool         // deliver a copy that no pool takes back: the reference run
	sent      int
}

func (w *wireEnd) LocalVIP() IP                { return w.ip }
func (w *wireEnd) Clock() *sim.Simulator       { return w.s }
func (w *wireEnd) SetReceiver(f func(*Packet)) { w.recv = f }
func (w *wireEnd) deliver(p any)               { w.recv(p.(*Packet)) }

func (w *wireEnd) SendIP(p *Packet) {
	w.sent++
	if w.dropEvery > 0 && w.sent%w.dropEvery == 0 {
		return
	}
	d := w.latency
	if w.lateEvery > 0 && w.sent%w.lateEvery == 0 {
		d += w.lateBy
	}
	if p.Proto == ProtoTCP && p.Size == ipHdrSize+tcpHdrSize {
		d += w.ackDelay
	}
	if w.gcOwned {
		p = p.gcCopy()
	}
	w.s.AtArg(w.s.Now().Add(d), w.peer.deliverFn, p)
}

// wiredStacks joins two stacks by a wire of the given one-way latency.
func wiredStacks(seed int64, latency sim.Duration) (s *sim.Simulator, a, b *Stack, wa, wb *wireEnd) {
	s = sim.New(seed)
	wa = &wireEnd{ip: MustParseIP("172.16.1.2"), s: s, latency: latency}
	wb = &wireEnd{ip: MustParseIP("172.16.1.3"), s: s, latency: latency}
	wa.peer, wb.peer = wb, wa
	wa.deliverFn, wb.deliverFn = wa.deliver, wb.deliver
	return s, NewStack(wa, StackConfig{}), NewStack(wb, StackConfig{}), wa, wb
}

// TestPoolBoundedOneWay: datagrams that only ever run one way leave the
// shard's list holding what was in flight at once and no more. (A list kept
// by the receiving stack ends as long as the number of datagrams it saw.)
func TestPoolBoundedOneWay(t *testing.T) {
	const burst = 8 // sends between drains: the most packets ever in flight
	s, a, b, _, _ := wiredStacks(1, sim.Millisecond)
	got := 0
	if err := b.ListenUDP(9, func(IP, uint16, int, any) { got++ }); err != nil {
		t.Fatal(err)
	}
	for sent := 0; sent < 100000; sent += burst {
		for i := 0; i < burst; i++ {
			a.SendUDP(b.IP(), 9, 9, 100, nil)
		}
		s.RunFor(2 * sim.Millisecond)
		if l := b.PoolLen(); l > burst {
			t.Fatalf("after %d one-way datagrams the receiver's list holds %d, more than the %d ever in flight", sent+burst, l, burst)
		}
	}
	if got != 100000 {
		t.Fatalf("%d of 100000 datagrams delivered", got)
	}
	if l := b.PoolLen(); !poolDebug && l != burst {
		t.Errorf("list holds %d packets after bursts of %d, want exactly the burst", l, burst)
	}
}

// TestRTOArmedOncePerAck: an ACK that makes progress cancels and schedules
// the retransmission timer once — trySend arms it, handleSegment must not
// arm it again behind trySend's back.
func TestRTOArmedOncePerAck(t *testing.T) {
	s, a, b, wa, _ := wiredStacks(3, 5*sim.Millisecond)
	b.ListenTCP(80, func(*Conn) {})
	c := a.DialTCP(b.IP(), 80)
	s.RunFor(sim.Second)
	if c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	progressing, counted := 0, 0
	inner := wa.recv
	wa.recv = func(p *Packet) {
		una, mark := c.sndUna, c.RTOMark()
		inner(p)
		if c.sndUna > una {
			progressing++
			want := 1
			if !c.outstanding() {
				want = 0 // the last ACK: the timer is cancelled and stays so
			}
			d, ok := c.RTOArmsSince(mark)
			if !ok {
				return // the timer had fired before this ACK: nothing to count on
			}
			counted++
			if d != want {
				t.Errorf("ACK moving sndUna %d -> %d armed the retransmission timer %d times, want %d", una, c.sndUna, d, want)
			}
		}
	}
	c.Send(200*1400, nil)
	s.RunFor(10 * sim.Second)
	if c.AckedBytes() != 200*1400 || progressing < 100 || counted < progressing*9/10 {
		t.Fatalf("%d bytes acked by %d progressing ACKs, %d of them counted; measurement would be vacuous", c.AckedBytes(), progressing, counted)
	}
}

// TestOvertakenSegmentDropped: a parked segment the stream passes without
// landing on its first byte leaves Conn.oo (and, pooled, returns to the
// list). A 600-byte write is lost and a 1400-byte write parks at offset
// 600; the go-back-N retransmission is cut [0, 1400) and carries rcvNxt
// from 0 to 1400, over the parked segment's key.
func TestOvertakenSegmentDropped(t *testing.T) {
	s, a, b, wa, _ := wiredStacks(5, 5*sim.Millisecond)
	var srv *Conn
	b.ListenTCP(80, func(c *Conn) { srv = c })
	c := a.DialTCP(b.IP(), 80)
	s.RunFor(sim.Second)
	if c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	wa.dropEvery = 1
	c.Send(600, "first")
	wa.dropEvery = 0
	c.Send(1400, "second")
	s.RunFor(20 * sim.Millisecond)
	if srv == nil || srv.OOLen() != 1 || srv.rcvNxt != 0 {
		t.Fatalf("want the second write parked ahead of a hole; oo holds %d, rcvNxt %d", srv.OOLen(), srv.rcvNxt)
	}
	s.RunFor(10 * sim.Second)
	if srv.rcvNxt != 2000 || c.AckedBytes() != 2000 || c.Retransmits() != 1 {
		t.Fatalf("stream did not complete as scripted: rcvNxt %d, acked %d, %d retransmits", srv.rcvNxt, c.AckedBytes(), c.Retransmits())
	}
	if n := srv.OOLen(); n != 0 {
		t.Errorf("%d segment(s) still parked below rcvNxt %d after the stream completed, want 0", n, srv.rcvNxt)
	}
}

// TestDrainBehindOvertaken: the segment parked at the stream's new rcvNxt is
// delivered at once even when a segment the stream passed sits before it. A
// 600-byte write is lost, an 800-byte one parks at 600 and a 300-byte one at
// 1400; the retransmission cut [0, 1400) passes the segment parked at 600
// and lands on the one at 1400, so the ACK that answers it acknowledges 1700.
func TestDrainBehindOvertaken(t *testing.T) {
	s, a, b, wa, wb := wiredStacks(5, 5*sim.Millisecond)
	var srv *Conn
	b.ListenTCP(80, func(c *Conn) { srv = c })
	c := a.DialTCP(b.IP(), 80)
	s.RunFor(sim.Second)
	if c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	retransmitted, acked := false, -1
	data := wb.recv
	wb.recv = func(p *Packet) {
		if p.tcp.Len > 0 && p.tcp.Seq == 0 {
			if srv.OOLen() != 2 {
				t.Fatalf("want two segments parked when the retransmission arrives, oo holds %d", srv.OOLen())
			}
			retransmitted = true
		}
		data(p)
	}
	acks := wa.recv
	wa.recv = func(p *Packet) {
		if retransmitted && acked < 0 {
			acked = p.tcp.Ack
		}
		acks(p)
	}
	wa.dropEvery = 1
	c.Send(600, nil)
	wa.dropEvery = 0
	c.Send(800, nil)
	c.Send(300, nil)
	s.RunFor(10 * sim.Second)
	if acked != 1700 {
		t.Fatalf("the ACK after the retransmission acknowledges %d, want 1700", acked)
	}
	if srv.rcvNxt != 1700 || srv.OOLen() != 0 {
		t.Fatalf("stream did not complete as scripted: rcvNxt %d, %d parked", srv.rcvNxt, srv.OOLen())
	}
}

// TestOvertakenReleasedInOrder: when one retransmission carries the stream
// past several parked segments they return to the list lowest first, whatever
// order the map hands them out in — the free list, and with it which object
// carries which later segment, must repeat from run to run. Five 300-byte
// writes park behind a lost first one; the retransmission cut [0, 1400)
// overtakes the four below 1400, and the ACK that answers it takes the head of
// the list: the packet that was parked highest, released last.
func TestOvertakenReleasedInOrder(t *testing.T) {
	for run := 0; run < 8; run++ {
		s, a, b, wa, wb := wiredStacks(5, 5*sim.Millisecond)
		var srv *Conn
		b.ListenTCP(80, func(c *Conn) { srv = c })
		c := a.DialTCP(b.IP(), 80)
		s.RunFor(sim.Second)
		if c.state != stateEstablished {
			t.Fatal("handshake failed")
		}
		var highest, ack *Packet
		data := wb.recv
		wb.recv = func(p *Packet) {
			if p.tcp.Len > 0 && p.tcp.Seq == 0 {
				if srv.OOLen() != 5 {
					t.Fatalf("want five segments parked when the retransmission arrives, oo holds %d", srv.OOLen())
				}
				highest = srv.parkedPacket(1200)
			}
			data(p)
		}
		acks := wa.recv
		wa.recv = func(p *Packet) {
			if highest != nil && ack == nil {
				ack = p
				if p.tcp.Ack != 1400 {
					t.Fatalf("the ACK after the retransmission acknowledges %d, want 1400", p.tcp.Ack)
				}
			}
			acks(p)
		}
		wa.dropEvery = 1
		c.Send(300, 0)
		wa.dropEvery = 0
		for i := 1; i <= 5; i++ {
			c.Send(300, i)
		}
		s.RunFor(10 * sim.Second)
		if srv.rcvNxt != 1800 || c.AckedBytes() != 1800 || srv.OOLen() != 0 {
			t.Fatalf("stream did not complete as scripted: rcvNxt %d, acked %d, %d parked", srv.rcvNxt, c.AckedBytes(), srv.OOLen())
		}
		if poolDebug {
			continue // nothing is reused: no order to observe
		}
		if ack == nil || ack != highest {
			t.Fatalf("run %d: the ACK after the retransmission does not reuse the packet that was parked highest: overtaken segments were not released lowest first", run)
		}
	}
}

// transferProgram is one run of TestQuickPooledMatchesGCOwned's program and
// everything of its outcome two runs are compared by.
func transferProgram(gcOwned bool, sizesOut, sizesBack []uint16, dropA, dropB, late, ackMs uint8) string {
	s, a, b, wa, wb := wiredStacks(17, 5*sim.Millisecond)
	wa.gcOwned, wb.gcOwned = gcOwned, gcOwned
	// Every k-th packet lost each way (k >= 3, or nothing gets through), one
	// in a few held back past the ones that follow, ACKs late.
	wa.dropEvery, wb.dropEvery = 3+int(dropA)%17, 3+int(dropB)%17
	wa.lateEvery, wa.lateBy = 2+int(late)%7, 12*sim.Millisecond
	wb.lateEvery, wb.lateBy = 2+int(late/8)%7, 7*sim.Millisecond
	wa.ackDelay = sim.Duration(ackMs%40) * sim.Millisecond
	wb.ackDelay = wa.ackDelay

	var out strings.Builder
	logOf := map[*Conn]*[]string{}
	watch := func(c *Conn) {
		l := &[]string{}
		logOf[c] = l
		c.OnMessage(func(size int, msg any) { *l = append(*l, fmt.Sprintf("%v/%d", msg, size)) })
	}
	send := func(c *Conn, tag string, sizes []uint16) {
		for i, sz := range sizes {
			c.Send(int(sz)%5000, fmt.Sprintf("%s%d", tag, i))
		}
	}
	var conns []*Conn // dialers first, then the accepted ends in order of arrival
	for _, port := range []uint16{7, 8} {
		port := port
		b.ListenTCP(port, func(c *Conn) {
			watch(c)
			conns = append(conns, c)
			send(c, fmt.Sprintf("back%d-", port), sizesBack)
		})
	}
	var udp []string
	b.ListenUDP(9, func(_ IP, sp uint16, size int, msg any) { udp = append(udp, fmt.Sprintf("%d/%d/%v", sp, size, msg)) })
	for _, port := range []uint16{7, 8} {
		c := a.DialTCP(b.IP(), port)
		watch(c)
		conns = append(conns, c)
		send(c, fmt.Sprintf("out%d-", port), sizesOut)
	}
	// Echoes and datagrams between the segments, so a packet released while
	// it is still on its way is taken again before it lands.
	var pings []string
	for i := 0; i < 40; i++ {
		i := i
		s.After(sim.Duration(i)*30*sim.Millisecond, func() {
			a.Ping(b.IP(), 56, 400*sim.Millisecond, func(ok bool, rtt sim.Duration) {
				pings = append(pings, fmt.Sprintf("%d:%v:%v", i, ok, rtt))
			})
			a.SendUDP(b.IP(), uint16(1000+i), 9, 10+i, i)
		})
	}
	s.RunFor(10 * sim.Minute)
	for _, c := range conns[:2] {
		c.Close()
	}
	s.RunFor(10 * sim.Minute)

	for i, c := range conns {
		fmt.Fprintf(&out, "conn %d: rcvd %d acked %d of %d retransmits %d closed %v oo %d msgs %v\n",
			i, c.rcvBytes, c.AckedBytes(), c.sndBytes, c.Retransmits(), c.Closed(), c.OOLen(), *logOf[c])
	}
	fmt.Fprintf(&out, "pings %v\nudp %v\nA %s\nB %s\n", pings, udp, a.Stats.String(), b.Stats.String())
	return out.String()
}

// TestQuickPooledMatchesGCOwned: a transfer program over a wire that loses
// every k-th packet, reorders and delays ACKs — two connections sharing the
// stacks, data both ways, echoes and datagrams in between — comes out the
// same with every packet pooled as with every packet a fresh object nothing
// ever takes back: same messages in the same order, same byte counts, same
// Stats, same Retransmits. Run under -tags packetdebug the pooled side is the
// poison build's, which turns what this test would see as a difference into
// a panic at the site.
func TestQuickPooledMatchesGCOwned(t *testing.T) {
	f := func(sizesOut, sizesBack []uint16, dropA, dropB, late, ackMs uint8) bool {
		if len(sizesOut) > 40 {
			sizesOut = sizesOut[:40]
		}
		if len(sizesBack) > 40 {
			sizesBack = sizesBack[:40]
		}
		pooled := transferProgram(false, sizesOut, sizesBack, dropA, dropB, late, ackMs)
		ref := transferProgram(true, sizesOut, sizesBack, dropA, dropB, late, ackMs)
		if pooled != ref {
			t.Logf("pooled:\n%s\ngc-owned:\n%s", pooled, ref)
			return false
		}
		// The reference itself must be a complete transfer, or equality
		// proves little: every message of the program, in order, each way.
		for _, want := range []struct {
			tag   string
			sizes []uint16
		}{{"out7-", sizesOut}, {"out8-", sizesOut}, {"back7-", sizesBack}, {"back8-", sizesBack}} {
			var msgs []string
			for i, sz := range want.sizes {
				n := int(sz) % 5000
				if n <= 0 {
					n = 1
				}
				msgs = append(msgs, fmt.Sprintf("%s%d/%d", want.tag, i, n))
			}
			if !strings.Contains(ref, fmt.Sprintf("msgs %v\n", msgs)) {
				t.Logf("no connection received %v:\n%s", msgs, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestHotFieldsShardPoolLines keeps a cache line between a shard's free
// lists and either end of its pool. The pools of two shards are made one
// after the other, as each shard's first stack is built, and nothing the
// allocator puts beside a pool may share a line with its lists (DESIGN.md
// §9, "Per-shard state owns its cache lines").
func TestHotFieldsShardPoolLines(t *testing.T) {
	const line = 64
	typ := reflect.TypeOf(shardPool{})
	first, end := typ.Size(), uintptr(0)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			first, end = min(first, f.Offset), max(end, f.Offset+f.Type.Size())
		}
	}
	if first < line || typ.Size()-end < line {
		t.Errorf("shardPool's lists lie at bytes %d to %d of %d: want a line of padding on each side", first, end, typ.Size())
	}
}
