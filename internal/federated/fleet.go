package federated

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// Policy is the whole failure model's configuration (DESIGN.md §3.5), fixed
// when a Fleet is constructed and inherited by every session of the fleet.
// Restart recovery is not configurable: every session keeps a creation log
// and replays it when a worker comes back under a new instance epoch
// (recovery.go). The zero value retries nothing and sets no budget.
type Policy struct {
	// Attempts is the total number of tries per retry-safe batch
	// (RetryableBatch) after transport failures; <= 1 means no retry.
	Attempts int
	// Backoff is the delay before the second attempt; it doubles per further
	// attempt up to maxBackoff and is jittered to [0.5x, 1.5x). Zero means
	// defaultBackoff.
	Backoff time.Duration
	// Seed feeds the one jitter RNG of the retry backoffs, so schedules are
	// deterministic in tests.
	Seed int64
	// CallTimeout, when positive, is the time budget of every call whose
	// caller context carries no deadline of its own. It travels to the worker
	// on the wire, bounds handler execution there, and is never refunded by a
	// retry: a blown budget fails the batch with fedrpc.ErrDeadlineExceeded.
	// Without it, fedrpc's read deadline (DefaultIOTimeout) bounds the wait
	// for a worker that stopped answering.
	CallTimeout time.Duration
}

const (
	defaultBackoff = 50 * time.Millisecond
	maxBackoff     = 2 * time.Second
)

// Fleet is the shared substrate many coordinators multiplex over: per worker
// address one site — connection pool and instance epoch — plus the failure
// policy and the namespace allocator that keeps concurrent sessions' object
// IDs disjoint.
//
// The paper's prototype pairs one control program with one worker fleet, so
// the original Coordinator owned its connections outright. A standing
// service (internal/fedserve) breaks that: many sessions issue operations
// against the same workers at once, and per-session connections would both
// exhaust worker accept limits and hide a restart one session saw from the
// others. The Fleet centralizes what is physically shared — wires and worker
// instance epochs — while each session keeps its own Coordinator for what is
// logically private: creation log, ID sequence, and lifecycle.
//
// A Fleet is safe for concurrent use. Its sessions, which come from
// NewSession, are the only coordinators there are; a single control program
// is one session of a fleet it closes after the session.
type Fleet struct {
	opts     fedrpc.Options
	poolSize int
	policy   Policy
	reg      *obs.Registry

	mu     sync.Mutex
	sites  map[string]*site // guarded by mu
	closed bool             // guarded by mu

	// nextNS hands out session namespaces. Sequential, never reused: with
	// 23 namespace bits a fleet exhausts them after ~8M sessions, long past
	// any standing daemon's restart cadence, and no reuse means a late
	// straggler batch from a closed session can never write into a
	// namespace that was recycled to a live one.
	nextNS atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // jitter source; guarded by rngMu
}

// NewFleet creates a fleet whose per-address pools hold up to poolSize
// connections each (values below 1 are clamped to 1). opts configure TLS,
// network emulation, timeouts, and the metrics registry for every worker
// connection; policy is the failure model of every session.
func NewFleet(opts fedrpc.Options, poolSize int, policy Policy) *Fleet {
	if poolSize < 1 {
		poolSize = 1
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	return &Fleet{
		opts:     opts,
		poolSize: poolSize,
		policy:   policy,
		reg:      reg,
		sites:    map[string]*site{},
		rng:      rand.New(rand.NewSource(policy.Seed)),
	}
}

// NewSession creates a coordinator view of this fleet under a fresh object
// namespace. The session shares the fleet's sites and policy but owns its
// creation log and ID sequence; closing it releases only its own resources,
// never the fleet's.
func (f *Fleet) NewSession() (*Coordinator, error) {
	ns := f.nextNS.Add(1)
	if ns > fedrpc.MaxNamespace {
		return nil, fmt.Errorf("federated: fleet namespace space exhausted (%d sessions)", ns-1)
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("federated: fleet is closed")
	}
	return newCoordinator(f, ns), nil
}

// site returns (creating if needed) the per-worker state for addr. Pools
// dial lazily, so creation under the lock touches no wire.
func (f *Fleet) site(addr string) (*site, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("federated: fleet is closed")
	}
	st, ok := f.sites[addr]
	if !ok {
		st = &site{pool: fedrpc.NewPool(addr, f.poolSize, f.opts)}
		f.sites[addr] = st
	}
	return st, nil
}

// snapshot copies the site table for iteration outside the lock.
func (f *Fleet) snapshot() map[string]*site {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]*site, len(f.sites))
	for addr, st := range f.sites {
		out[addr] = st
	}
	return out
}

// PoolStats returns per-address connection accounting for every pool.
func (f *Fleet) PoolStats() map[string]fedrpc.PoolStats {
	sites := f.snapshot()
	out := make(map[string]fedrpc.PoolStats, len(sites))
	for addr, st := range sites {
		out[addr] = st.pool.Stats()
	}
	return out
}

// BytesSent returns the total bytes sent to all workers across all pools.
func (f *Fleet) BytesSent() int64 {
	var n int64
	for _, st := range f.snapshot() {
		n += st.pool.BytesSent()
	}
	return n
}

// BytesReceived returns the total bytes received from all workers.
func (f *Fleet) BytesReceived() int64 {
	var n int64
	for _, st := range f.snapshot() {
		n += st.pool.BytesReceived()
	}
	return n
}

// withBudget bounds ctx by Policy.CallTimeout unless it already carries a
// deadline of its own (or no budget is configured).
func (f *Fleet) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has || f.policy.CallTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, f.policy.CallTimeout)
}

// jitter spreads d uniformly over [0.5d, 1.5d) from the seeded RNG, so the
// retries of sessions that failed together do not fire on the same tick.
func (f *Fleet) jitter(d time.Duration) time.Duration {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return time.Duration(float64(d) * (0.5 + f.rng.Float64()))
}

// Close closes every pool (terminating all worker connections, checked out
// or idle) and rejects future sessions and checkouts. Sessions still open see
// transport errors; a service drains them first (fedserve.Drain). It is
// idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	sites := f.sites
	f.sites = map[string]*site{}
	f.mu.Unlock()
	for _, st := range sites {
		st.pool.Close()
	}
}
