package natsim

// MemoStats reports how many of the translations that consulted the flow
// memo did no map operation.
func (n *NAT) MemoStats() (hits, lookups uint64) { return n.memoHits, n.memoLookups }

// MemoStats reports how many of the pinhole passes that consulted the flow
// memo did no map operation.
func (f *Firewall) MemoStats() (hits, lookups uint64) { return f.memoHits, f.memoLookups }
