package experiments

import (
	"cmp"
	"fmt"
	"sync"

	"wow/internal/brunet"
	"wow/internal/middleware/nfs"
	"wow/internal/middleware/pbs"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vip"
	"wow/internal/vm"
	"wow/internal/workloads"
)

func mustVIP(s string) vip.IP { return vip.MustParseIP(s) }

// parallel runs leg(0) … leg(n-1) on goroutines of their own and waits for
// all of them. Each leg is an independent simulation on its own seeded
// engine, so no result depends on which leg finishes first, and neither
// does the error: of the legs that fail, the lowest index's is returned.
// This is the one place a harness starts goroutines.
func parallel(n int, leg func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = leg(i)
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

// waitFor runs s a step at a time until done reports true or limit has
// passed since the call, and reports whether done did. A completion
// callback that never fires thus ends the run at the limit instead of
// looping forever; every harness sets a limit its runs never reach.
func waitFor(s *sim.Simulator, step, limit sim.Duration, done func() bool) bool {
	deadline := s.Now().Add(limit)
	for !done() {
		if s.Now() >= deadline {
			return false
		}
		s.RunFor(step)
	}
	return true
}

// buildSmallOverlay stands up n public routers and two public
// workstations on a one-shard fabric's network, each on a site of its own,
// for experiments that don't need the full Figure-1 testbed.
func buildSmallOverlay(f *fabric, n int) (*testbed.WOW, error) {
	s, net := f.timeline(), f.net
	w := testbed.NewWOW(testbed.Options{Shortcuts: true, Brunet: brunet.DefaultConfig()})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%02d", i)
		h := net.AddHost(name, net.AddSite(name), net.Root(), phys.HostConfig{})
		if _, err := w.AddRouter(h, name); err != nil {
			return nil, fmt.Errorf("experiments: add router %s: %w", name, err)
		}
		s.RunFor(sim.Second)
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ws%02d", i)
		h := net.AddHost(name, net.AddSite(name), net.Root(), phys.HostConfig{
			ServiceTime: 400 * sim.Microsecond, Bandwidth: 1.7e6,
		})
		if _, err := w.AddWorkstation(h, mustVIP(fmt.Sprintf("172.16.1.%d", i+2)), vm.Spec{Name: name}); err != nil {
			return nil, fmt.Errorf("experiments: add workstation %s: %w", name, err)
		}
	}
	s.RunFor(2 * sim.Minute)
	return w, nil
}

// pingOK sends one virtual ping and waits out its timeout.
func pingOK(s *sim.Simulator, from *vm.VM, to vip.IP) bool {
	ok := false
	from.Stack().Ping(to, 64, 2*sim.Second, func(o bool, _ sim.Duration) { ok = o })
	s.RunFor(3 * sim.Second)
	return ok
}

// healWindow is how long a fault harness waits for the overlay to recover
// before it reports the fault as unhealed.
const healWindow = 20 * sim.Minute

// healedAfter pings every probe pair, from each pair's first VM to its
// second, every step until all answer in one round, and reports the seconds
// since from when they did. It gives up once healWindow has passed since
// from, returning the censored window and false.
func healedAfter(tb *testbed.Testbed, pairs [][2]string, from sim.Time, step sim.Duration) (float64, bool) {
	for tb.Sim.Now().Sub(from) < healWindow {
		healed := true
		for _, p := range pairs {
			if !pingOK(tb.Sim, tb.VM(p[0]), tb.VM(p[1]).IP()) {
				healed = false
				break
			}
		}
		if healed {
			return tb.Sim.Now().Sub(from).Seconds(), true
		}
		tb.Sim.RunFor(step)
	}
	return healWindow.Seconds(), false
}

// firstReply pings dst from src once a second for window, each ping timing
// out after 900 ms, and reports the seconds from the call until the first
// reply arrived. With no reply inside the window it returns the censored
// window and false.
func firstReply(s *sim.Simulator, src *vm.VM, dst vip.IP, window sim.Duration) (float64, bool) {
	start := s.Now()
	replied := false
	var sec float64
	tk := s.Tick(sim.Second, 0, func() {
		if replied {
			return
		}
		src.Stack().Ping(dst, 64, 900*sim.Millisecond, func(ok bool, _ sim.Duration) {
			if ok && !replied {
				replied, sec = true, s.Now().Sub(start).Seconds()
			}
		})
	})
	s.RunFor(window)
	tk.Stop()
	if !replied {
		return window.Seconds(), false
	}
	return sec, true
}

// warmPath pings dst from src once a second for d and then stops, so a
// measurement that follows starts over a formed shortcut — the paper's
// nodes had communicated before its transfers began.
func warmPath(s *sim.Simulator, src, dst *vm.VM, d sim.Duration) {
	warm := s.Tick(sim.Second, 0, func() {
		src.Stack().Ping(dst.IP(), 64, 2*sim.Second, func(bool, sim.Duration) {})
	})
	s.RunFor(d)
	warm.Stop()
}

// runTTCP transfers size bytes from src to dst and runs the simulation, a
// minute at a time, until the transfer reports its result. A transfer that
// has not reported after a day (Table II's slowest takes under three hours)
// counts as not completed.
func runTTCP(s *sim.Simulator, src, dst *vm.VM, size int64) workloads.TTCPResult {
	var res workloads.TTCPResult
	done := false
	workloads.TTCP(src.Stack(), dst.IP(), size, func(r workloads.TTCPResult) {
		res, done = r, true
	})
	waitFor(s, sim.Minute, 24*sim.Hour, func() bool { return done })
	return res
}

// pbsCluster stands up the batch cluster of Figures 7 and 8 on tb: an NFS
// export on head holding the MEME input, a PBS head beside it and a MOM on
// every worker, then runs two minutes for the MOMs to register.
func pbsCluster(tb *testbed.Testbed, name string, head *vm.VM, workers []*vm.VM) (*pbs.Head, error) {
	nfsSrv, err := nfs.NewServer(head.Stack())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	meme := workloads.DefaultMEME()
	nfsSrv.Put(meme.InputPath, meme.InputBytes)
	pbsHead, err := pbs.NewHead(head.Stack())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, v := range workers {
		if _, err := pbs.NewMOM(v, head.IP()); err != nil {
			return nil, fmt.Errorf("%s: mom %s: %w", name, v.Name(), err)
		}
	}
	tb.Sim.RunFor(2 * sim.Minute)
	return pbsHead, nil
}
