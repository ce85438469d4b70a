package fedtest_test

import (
	"testing"
	"time"

	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// TestBinaryTransferSurvivesMidSlabResets kills the connection to every
// worker in the middle of a raw float64 slab — after 16 KiB of a ~32 KiB
// matrix PUT — and requires the redial-and-replay machinery to complete a
// full distribute/consolidate round trip bit-exactly under the binary wire
// format. This is the framing-specific companion to
// TestLMTrainingSurvivesConnResets: a reset now tears a connection whose
// stream position is inside an unframed byte slab, and recovery must
// re-negotiate the format on the fresh connection before replaying.
func TestBinaryTransferSurvivesMidSlabResets(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{
		Seed:            11,
		ConnResets:      3,
		ResetAfterBytes: 16 << 10, // inside the ~32 KB per-worker matrix slab
		ResetPerAddr:    true,
	})
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 3,
		Faults:  faults,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, _ := data.Regression(4, 600, 20, 0.05)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatalf("distribute did not survive mid-slab resets: %v", err)
	}
	back, err := fx.Consolidate()
	if err != nil {
		t.Fatalf("consolidate did not survive mid-slab resets: %v", err)
	}
	// Raw IEEE-754 framing is lossless, so the round trip must be exact.
	if !back.EqualApprox(x, 0) {
		t.Fatal("consolidated matrix diverged from the distributed one")
	}
	if s := faults.Stats(); s.Resets != 3 {
		t.Fatalf("fault stats = %+v, want one mid-slab reset per worker (3)", s)
	}
}
