package fedtest_test

import (
	"strings"
	"sync"
	"testing"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// TestConcurrentStatsAndMetricsDuringHealth exercises every observability
// read path while a federation is under full load: a training loop drives
// RPCs while goroutines hammer the fleet's per-site pool accounting and
// metrics-registry snapshots/rendering the whole time. Run under -race this
// pins down that the sites and the registry are safe for concurrent access.
func TestConcurrentStatsAndMetricsDuringHealth(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 2,
		Policy:  federated.Policy{Attempts: 3},
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
				if stats := cl.Fleet.PoolStats(); len(stats) > len(cl.Addrs) {
					t.Errorf("fleet reports %d pools for %d workers", len(stats), len(cl.Addrs))
					return
				}
				_ = cl.Fleet.BytesSent()
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
	if snap.Counters["rpc.client.calls"] == 0 {
		t.Fatal("training produced no rpc.client.calls metric")
	}
}
