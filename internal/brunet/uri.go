package brunet

import (
	"fmt"
	"slices"

	"wow/internal/phys"
)

// URI is a Uniform Resource Indicator naming one way to reach a node over
// a physical transport, e.g. brunet.udp:192.0.1.1:1024 (§IV-A). A node
// behind NATs has several URIs — its private endpoint plus every
// NAT-assigned endpoint it has learned — and the linking protocol tries
// them one by one.
type URI struct {
	// Transport is the tunnel transport; this implementation provides
	// "udp" (the transport used in all of the paper's experiments).
	Transport string
	EP        phys.Endpoint
}

// String renders "brunet.udp:ip:port".
func (u URI) String() string { return fmt.Sprintf("brunet.%s:%s", u.Transport, u.EP) }

// IsZero reports whether the URI is unset.
func (u URI) IsZero() bool { return u.Transport == "" && u.EP.IsZero() }

// uriSet is an ordered set of URIs: insertion order is preserved because
// the linking protocol's trial order matters (§V-B explains the UFL delay
// in terms of the NAT-assigned URI being tried first).
//
// The set is capped: a node behind a symmetric NAT is observed at a
// different public port by every peer it handshakes with, so an unbounded
// set would grow with the neighbor count and stretch every later linking
// attempt by a full per-URI retry budget per stale entry. When full, the
// oldest entry is evicted — old symmetric mappings expire at the NAT
// anyway, and the freshest observations are the ones still live.
const maxLearnedURIs = 4

type uriSet struct {
	list []URI
}

// add appends u unless it is zero or already listed; reports whether it was
// new. The list is short enough that a scan finds a duplicate.
func (s *uriSet) add(u URI) bool {
	if u.IsZero() || slices.Contains(s.list, u) {
		return false
	}
	if len(s.list) >= maxLearnedURIs {
		s.list = append(s.list[:0], s.list[1:]...)
	}
	s.list = append(s.list, u)
	return true
}
