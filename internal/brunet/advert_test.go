package brunet

import (
	"testing"

	"wow/internal/phys"
)

// publishList runs one advert build over list, the way the near overlord's
// gossip walks the table.
func publishList(adv *advert, list []NeighborInfo) ([]NeighborInfo, bool) {
	adv.begin(len(list))
	for _, e := range list {
		adv.add(e)
	}
	return adv.publish()
}

// sameList reports whether two neighbor lists advertise the same entries.
func sameList(a, b []NeighborInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].same(&b[i]) {
			return false
		}
	}
	return true
}

// TestAdvertCopyOnWrite: a published neighbor list is never written again.
// An unchanged table gets the published slice back; a changed peer, load or
// URI list gets a new array, while the list handed out before reads exactly
// as it did; a shrink gets a prefix view of the published list that cannot
// be appended into.
func TestAdvertCopyOnWrite(t *testing.T) {
	uris := []URI{UDPURI(phys.Endpoint{IP: 1, Port: 1}), UDPURI(phys.Endpoint{IP: 2, Port: 2})}
	copied := append([]URI(nil), uris...) // the same URIs in another array
	a, b, c, d := Addr{19: 1}, Addr{19: 2}, Addr{19: 3}, Addr{19: 4}
	base := []NeighborInfo{{Addr: a, URIs: uris}, {Addr: b, URIs: uris, Load: 2}, {Addr: c}}
	with := func(i int, e NeighborInfo) []NeighborInfo {
		l := append([]NeighborInfo(nil), base...)
		l[i] = e
		return l
	}
	const (
		shared = iota // the published slice itself
		fresh         // a new array
		prefix        // a capped view of the published array
		empty         // nil
	)
	for _, tc := range []struct {
		name string
		next []NeighborInfo
		want int
	}{
		{"unchanged", append([]NeighborInfo(nil), base...), shared},
		{"addr changed", with(1, NeighborInfo{Addr: d, URIs: uris, Load: 2}), fresh},
		{"load changed", with(1, NeighborInfo{Addr: b, URIs: uris, Load: 3}), fresh},
		{"uris in another array", with(0, NeighborInfo{Addr: a, URIs: copied}), fresh},
		{"uris shorter", with(0, NeighborInfo{Addr: a, URIs: uris[:1]}), fresh},
		{"grown", append(append([]NeighborInfo(nil), base...), NeighborInfo{Addr: d}), fresh},
		{"shrunk", base[:2], prefix},
		{"emptied", nil, empty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var adv advert
			pub, _ := publishList(&adv, base)
			before := append([]NeighborInfo(nil), pub...)
			got, changed := publishList(&adv, tc.next)
			if !sameList(got, tc.next) {
				t.Fatalf("published %v, built %v", got, tc.next)
			}
			if !sameList(pub, before) {
				t.Fatalf("the list handed out before now reads %v, was %v", pub, before)
			}
			switch tc.want {
			case shared:
				if changed || &got[0] != &pub[0] || len(got) != len(pub) {
					t.Errorf("unchanged table: changed %v, got a different slice", changed)
				}
			case fresh:
				if !changed || &got[0] == &pub[0] {
					t.Errorf("changed table: changed %v, got the published array back", changed)
				}
			case prefix:
				if !changed || &got[0] != &pub[0] || cap(got) != len(got) {
					t.Errorf("shrunk table: changed %v, want a view of the published array with capacity %d, got capacity %d", changed, len(got), cap(got))
				}
			case empty:
				if !changed || got != nil {
					t.Errorf("emptied table: changed %v, got %v, want nil", changed, got)
				}
			}
			if again, changed := publishList(&adv, tc.next); changed || !sameList(again, got) || (len(got) > 0 && &again[0] != &got[0]) {
				t.Errorf("the same table built twice: the second build changed %v", changed)
			}
		})
	}
}

// TestStatusRebuildLeavesInFlight: the near overlord sends every neighbor
// one status message until its neighborhood changes; a change builds a new
// message and leaves the one already sent exactly as it was.
func TestStatusRebuildLeavesInFlight(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 64)
	n := settledNode(t, nodes)
	n.near.gossip()
	sent := n.near.status
	n.near.gossip()
	if n.near.status != sent {
		t.Fatal("an unchanged neighborhood rebuilt its status message")
	}
	before := append([]NeighborInfo(nil), sent.Neighbors...)
	c := n.firstConn(maskOf(StructuredNear))
	c.URIs = append([]URI(nil), c.URIs...) // the neighbor re-advertised the same URIs in a new list
	n.near.gossip()
	s.RunUntil(s.Now())
	if n.near.status == sent {
		t.Fatal("a changed neighborhood kept its old status message")
	}
	if !sameList(sent.Neighbors, before) {
		t.Errorf("the message in flight now reads %v, was %v", sent.Neighbors, before)
	}
	if e := n.near.status.Neighbors[0]; e.Addr != c.Peer || &e.URIs[0] != &c.URIs[0] {
		t.Errorf("the rebuilt message does not advertise the changed neighbor's URI list")
	}
}
