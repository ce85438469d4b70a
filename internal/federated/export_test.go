package federated

import (
	"testing"

	"exdra/internal/fedrpc"
)

// NewTestSession opens a session on a fleet of its own (one connection per
// worker address), for tests that need client options or a policy the
// shared cluster does not have. The fleet closes when the test ends.
func NewTestSession(t testing.TB, opts fedrpc.Options, policy Policy) *Coordinator {
	t.Helper()
	f := NewFleet(opts, 1, policy)
	t.Cleanup(f.Close)
	c, err := f.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// SetFlushEveryOp is the tests' eager switch: with it on, every deferring
// operation flushes before it returns, so one cluster can run a script
// eagerly and deferred and compare the two.
func (c *Coordinator) SetFlushEveryOp(on bool) { c.flushEveryOp = on }

// Pending reports how many deferred requests wait for addr.
func (c *Coordinator) Pending(addr string) int {
	b := c.box(addr)
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.reqs)
}

// The outbox caps, for the tests that fill them.
const (
	MaxPendingRequests = maxPendingRequests
	MaxPendingBytes    = maxPendingBytes
)
