package federated

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
