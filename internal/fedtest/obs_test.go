package fedtest_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// TestConcurrentStatsAndMetricsDuringHealth exercises every observability
// read path while a federation is under full load: a training loop drives
// RPCs, the fleet prober fires every few milliseconds, and goroutines
// hammer the fed.* counters, the site state and metrics-registry
// snapshots/rendering the whole time. Run under -race this pins down that
// the site and the registry are safe for concurrent access.
func TestConcurrentStatsAndMetricsDuringHealth(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 2,
		Policy:  federated.Policy{Recover: true, BreakerThreshold: 3, ProbeInterval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, y := data.Regression(9, 400, 12, 0.05)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := cl.Coord.Fleet().BreakerState(cl.Addrs[0]); s != "closed" {
					t.Errorf("breaker of a healthy worker is %q under load", s)
					return
				}
				snap := obs.Default().Snapshot()
				_ = snap.Diff(obs.Snapshot{})
				var sb strings.Builder
				_ = snap.WriteText(&sb)
				_ = obs.Default().Spans()
			}
		}()
	}

	// The training loop runs to completion while the readers spin.
	if _, err := algo.LM(fx, y, algo.LMConfig{MaxIterations: 8}); err != nil {
		t.Fatalf("training under concurrent observability reads: %v", err)
	}
	close(stop)
	readers.Wait()

	snap := obs.Default().Snapshot()
	if snap.Counters["fed.probes"] == 0 {
		t.Fatal("fleet prober never fired")
	}
	if snap.Counters["rpc.client.calls"] == 0 {
		t.Fatal("training produced no rpc.client.calls metric")
	}
}
