//go:build !race && !packetdebug

package ipop

// guardsRelaxed tells the allocation guard to log instead of assert: the
// race detector and the packetdebug pools both allocate where the
// production build does not.
const guardsRelaxed = false
