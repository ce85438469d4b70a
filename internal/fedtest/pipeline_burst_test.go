package fedtest

import (
	"sync"
	"testing"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/obs"
)

// Burst geometry: depth small independent GETs over one emulated-WAN
// connection, repeated bursts times. The RTT is fixed (no bandwidth cap) so
// the bars below do not depend on the machine.
const (
	burstRTT   = 35 * time.Millisecond
	burstDepth = 8
	bursts     = 3
)

// TestCoordinatorPipelinedBurst holds the pipelining bars through the whole
// coordinator path (fedtest cluster, Coordinator.Fetch, the per-address pool
// and the site): at a 35 ms RTT, a depth-8 burst of concurrent single-GET
// fetches must take under 3.5 RTTs with window 8, and lock-step (window 1)
// must take at least twice as long, so pipelining cannot silently regress
// to serialized exchanges.
func TestCoordinatorPipelinedBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive WAN emulation")
	}
	pipelined := runBursts(t, burstDepth)
	lockstep := runBursts(t, 1)
	perBurst := pipelined / bursts
	t.Logf("depth-%d burst at RTT %v: pipelined %v per burst, lock-step %v per burst",
		burstDepth, burstRTT, perBurst, lockstep/bursts)
	if limit := 7 * burstRTT / 2; perBurst >= limit {
		t.Fatalf("pipelined depth-%d burst took %v, want < %v (3.5 RTTs)", burstDepth, perBurst, limit)
	}
	if pipelined > lockstep/2 {
		t.Fatalf("pipelined bursts (%v) not at least 2x faster than lock-step (%v)", pipelined, lockstep)
	}
}

// runBursts times bursts bursts of burstDepth concurrent single-GET fetches
// against one worker behind a symmetric burstRTT link, on a coordinator
// whose per-address pool holds exactly one connection, so the burst shares
// a wire and the window alone decides whether the calls overlap.
func runBursts(t *testing.T, window int) time.Duration {
	t.Helper()
	cl, err := Start(Config{
		Workers: 1,
		Netem:   netem.Config{RTT: burstRTT},
		Window:  window,
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addr := cl.Addrs[0]

	// Seed the depth objects in one batched call.
	small := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	reqs := make([]fedrpc.Request, burstDepth)
	ids := make([]int64, burstDepth)
	for i := range reqs {
		ids[i] = cl.Coord.NewID()
		reqs[i] = fedrpc.Request{Type: fedrpc.Put, ID: ids[i], Data: fedrpc.MatrixPayload(small)}
	}
	resps, err := cl.Coord.Call(addr, reqs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		if !r.OK {
			t.Fatalf("seed PUT: %s", r.Err)
		}
	}

	start := time.Now()
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		errs := make([]error, burstDepth)
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = cl.Coord.Fetch(addr, ids[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("burst GET: %v", err)
			}
		}
	}
	return time.Since(start)
}
