package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// calib is the calibration kernel: a toy discrete-event simulator with no
// tie to the repository's code. A binary heap holds calibDepth timed
// events over calibNodes nodes of 16 KB state each (64 MB); a step pops
// the earliest event, touches six words of its node's state and two of a
// peer's, and schedules a successor on the peer. That is the memory
// behaviour of the workloads — a deep priority queue and scattered reads
// and writes over tens of megabytes — so the shared machine's slow phases
// (neighbours on the same caches and memory) slow it by the same factor:
// interleaved with ring_build and ring_route over ten minutes its time
// tracked theirs with slope 1.0 (correlation 0.90-0.94), where a sort
// kernel and pointer chases over 32-512 MB tracked with slopes 0.5-2.3.
//
// The state lives outside the Go heap, so the kernel neither allocates nor
// moves the collector's pacing for the workload under test.
type calib struct {
	state []uint64
	peers []int32
	heap  []calibEvent
	x     uint64
	sink  uint64
}

type calibEvent struct {
	t    uint64
	node int32
}

const (
	calibNodes = 4096
	calibWords = 2048 // 16 KB of state per node
	calibPeers = 8
	calibDepth = 64 << 10
	// calibSteps is the length of one kernel call, about 2 ms: short enough
	// to sit between segments of a phase, long enough to time.
	calibSteps = 4000
)

func newCalib() (*calib, error) {
	const size = calibNodes * calibWords * 8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel: map %d bytes: %w", size, err)
	}
	c := &calib{
		state: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8),
		peers: make([]int32, calibNodes*calibPeers),
		heap:  make([]calibEvent, 0, calibDepth+1),
		x:     88172645463325252,
	}
	for i := range c.peers {
		c.peers[i] = int32(c.rnd() % calibNodes)
	}
	for i := 0; i < calibDepth; i++ {
		c.push(calibEvent{t: c.rnd() % 1000000, node: int32(c.rnd() % calibNodes)})
	}
	// Fault every page in and let the heap reach its steady shape.
	for i := 0; i < len(c.state); i += 512 {
		c.state[i] = uint64(i)
	}
	for i := 0; i < 16; i++ {
		c.run()
	}
	return c, nil
}

func (c *calib) rnd() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (c *calib) push(e calibEvent) {
	h := append(c.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calib) pop() calibEvent {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h[l].t < h[s].t {
			s = l
		}
		if r < n && h[r].t < h[s].t {
			s = r
		}
		if s == i {
			break
		}
		h[s], h[i] = h[i], h[s]
		i = s
	}
	c.heap = h
	return top
}

// run executes calibSteps steps and returns the host ns they took.
func (c *calib) run() float64 {
	t0 := time.Now()
	for k := 0; k < calibSteps; k++ {
		e := c.pop()
		r := c.rnd()
		own := c.state[int(e.node)*calibWords : (int(e.node)+1)*calibWords]
		for j := 0; j < 6; j++ {
			idx := (r >> (j * 9)) & (calibWords - 1)
			own[idx] += r
			c.sink += own[idx^1]
		}
		peer := c.peers[int(e.node)*calibPeers+int(r&(calibPeers-1))]
		other := c.state[int(peer)*calibWords : (int(peer)+1)*calibWords]
		other[(r>>40)&(calibWords-1)]++
		other[(r>>50)&(calibWords-1)]++
		c.push(calibEvent{t: e.t + 1 + r%100000, node: peer})
	}
	return float64(time.Since(t0))
}
