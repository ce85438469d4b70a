package federated

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// RetryableBatch reports whether every request in the batch is safe to
// re-issue after a transport failure, i.e. when the coordinator cannot know
// whether the worker executed the batch before the connection died:
//
//   - READ re-parses the same file into the same ID (lineage-cached);
//   - PUT re-binds the same payload under the same ID (replace semantics);
//   - GET is a pure read;
//   - EXEC_INST re-executes deterministically over IDs, overwriting the
//     same output binding (rmvar of an already-removed ID is a no-op);
//   - CLEAR empties the symbol table either way;
//   - HEALTH reads nothing and writes nothing.
//
// EXEC_UDF is excluded: UDFs may carry non-idempotent side effects (e.g.
// parameter-server gradient application), so their batches fail fast.
func RetryableBatch(reqs []fedrpc.Request) bool {
	for _, r := range reqs {
		switch r.Type {
		case fedrpc.Read, fedrpc.Put, fedrpc.Get, fedrpc.ExecInst, fedrpc.Clear, fedrpc.Health:
		default:
			return false
		}
	}
	return true
}

// Coordinator is one control program's view of the federation: it allocates
// session-unique data IDs and issues RPCs to all workers in parallel (ExDRa
// §4.1), every batch through the one failure funnel (sendCtx).
//
// Connections, worker health and the failure Policy live in a Fleet: the
// constructor NewCoordinator owns a private size-1 fleet (one connection per
// address), while Fleet.NewSession returns a coordinator sharing a standing
// fleet with other sessions, its object IDs scoped by a session namespace
// (fedrpc.MakeID) so concurrent sessions never collide in a worker's symbol
// table.
type Coordinator struct {
	fleet    *Fleet
	ownFleet bool  // Close tears the fleet down too (NewCoordinator)
	ns       int64 // session namespace; 0 = standalone, unscoped

	mu      sync.Mutex
	touched map[string]struct{} // worker addrs this session has used; guarded by mu
	closed  bool                // guarded by mu
	done    chan struct{}       // closed by Close; cancels retry backoffs
	nextID  atomic.Int64

	// Write-behind dispatch (dispatch.go): one outbox of deferred requests
	// per worker address. flushEveryOp is the tests' eager switch — every
	// deferring operation flushes before it returns — so deferred and eager
	// execution can be compared on one cluster; nothing outside the
	// package's tests sets it.
	boxMu        sync.Mutex
	boxes        map[string]*outbox // guarded by boxMu
	flushEveryOp bool
	reads        atomic.Uint64 // sequence of queued reads: their program order (fetch.go)

	// What this session created at each worker, and under which instance
	// epoch (recovery.go).
	recMu sync.Mutex
	logs  map[string]*workerLog // guarded by recMu

	// reg is the fleet's observability registry: the fed.* series sit
	// alongside the RPC-level metrics the clients report themselves.
	reg *obs.Registry
}

// NewCoordinator creates a standalone coordinator owning a private fleet
// with one connection per worker address; opts configure TLS and network
// emulation for all worker connections, policy its failure handling (the
// zero Policy fails fast). For many sessions over one shared fleet, use
// NewFleet + Fleet.NewSession instead.
func NewCoordinator(opts fedrpc.Options, policy Policy) *Coordinator {
	return newCoordinator(NewFleet(opts, 1, policy), true, 0)
}

// newCoordinator builds a coordinator view of f under namespace ns.
func newCoordinator(f *Fleet, ownFleet bool, ns int64) *Coordinator {
	c := &Coordinator{
		fleet:    f,
		ownFleet: ownFleet,
		ns:       ns,
		touched:  map[string]struct{}{},
		logs:     map[string]*workerLog{},
		boxes:    map[string]*outbox{},
		done:     make(chan struct{}),
		reg:      f.reg,
	}
	c.nextID.Store(1)
	return c
}

// Fleet returns the fleet this coordinator issues calls through.
func (c *Coordinator) Fleet() *Fleet { return c.fleet }

// Namespace returns the session namespace scoping this coordinator's object
// IDs (0 for a standalone coordinator).
func (c *Coordinator) Namespace() int64 { return c.ns }

// NewID allocates a session-unique data ID, namespace-qualified so that
// IDs from two sessions sharing a fleet can never collide in a worker's
// symbol table (fedrpc.MakeID; a standalone coordinator's namespace is 0 and
// its IDs are the bare sequence).
func (c *Coordinator) NewID() int64 { return fedrpc.MakeID(c.ns, c.nextID.Add(1)) }

// site returns addr's fleet site, marking the address as touched by this
// session (the scope of ClearAll).
func (c *Coordinator) site(addr string) (*site, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("federated: coordinator is closed")
	}
	c.touched[addr] = struct{}{}
	c.mu.Unlock()
	return c.fleet.site(addr)
}

// Client returns the stable shared connection to a worker address (the
// fleet pool's first client, lazily dialed) for callers that speak to a
// worker directly — the parameter server, hierarchical gateways. Requests
// sent on it bypass the outbox, so whatever is deferred for addr is flushed
// first: a raw call can never overtake a buffered creation it depends on,
// and a deferred failure surfaces here rather than getting lost.
func (c *Coordinator) Client(addr string) (*fedrpc.Client, error) {
	if err := c.flushAddr(addr); err != nil {
		return nil, err
	}
	st, err := c.site(addr)
	if err != nil {
		return nil, err
	}
	return st.pool.Shared(context.Background())
}

// call issues one request batch to addr, preceded by whatever is deferred
// for that worker (exchange), through the failure funnel (sendCtx).
func (c *Coordinator) call(addr string, reqs []fedrpc.Request) ([]fedrpc.Response, error) {
	return c.exchange(context.Background(), addr, reqs)
}

// Call issues one request batch to addr through the same funnel every
// built-in federated operation uses. Callers composing their own operations
// (the service layer, tests) use it instead of raw clients so their traffic
// feeds the creation log and the worker's site like everything else.
func (c *Coordinator) Call(addr string, reqs ...fedrpc.Request) ([]fedrpc.Response, error) {
	return c.call(addr, reqs)
}

// sendCtx is the failure funnel under exchange, which hands it the real
// request list of a merged batch: the context's obs span/op labels flow
// through the RPC client into the span ring. Each attempt is classified
// once (attempt), settled into the worker's site and the fed.* counters
// (Fleet.settle), and mapped to the next step by verdict — the only place
// that decides between returning, retrying with backoff, replaying lost
// state for free (bounded by maxRecoveries, so a crash-looping worker
// surfaces as ErrWorkerRestarted), and failing. Worker-reported per-request
// errors are never retried — they are deterministic application errors,
// not faults.
func (c *Coordinator) sendCtx(ctx context.Context, addr string, reqs []fedrpc.Request) ([]fedrpc.Response, error) {
	st, err := c.site(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := c.fleet.withBudget(ctx)
	defer cancel()
	wl := c.log(addr)
	retrySafe := RetryableBatch(reqs)
	var lastErr error
	for tries, replays := 1, 0; ; {
		resps, class, epoch, err := c.attempt(ctx, st, wl, reqs, lastErr)
		c.fleet.settle(st, class, epoch, false)
		switch verdict(class, retrySafe, c.fleet.policy.Recover) {
		case actDone:
			return resps, nil
		case actFatal:
			return nil, err
		case actReplay:
			if replays++; replays > maxRecoveries {
				return nil, fmt.Errorf("federated: %s: %w %d times during one operation (crash loop?)",
					addr, ErrWorkerRestarted, replays)
			}
		case actRetry:
			if tries >= c.fleet.policy.Attempts {
				return nil, err
			}
			c.reg.Counter("fed.retries").Inc()
			if err := c.backoff(tries); err != nil {
				return nil, err
			}
			tries++
		}
		lastErr = err
	}
}

// attempt runs one attempt of a batch against a worker and classifies how it
// ended; the second return is the reply's instance epoch when there was a
// reply. Before the batch leaves, the session's state at the worker is
// brought up to the site's epoch (revalidate); afterwards the reply's epoch
// is compared with the one the batch was sent under, which is how a restart
// nobody has seen yet is detected. lastErr is the previous attempt's
// failure, kept matchable behind a breaker that tripped mid-retry.
func (c *Coordinator) attempt(ctx context.Context, st *site, wl *workerLog, reqs []fedrpc.Request, lastErr error) ([]fedrpc.Response, outcome, uint64, error) {
	addr := st.pool.Addr()
	if c.fleet.policy.BreakerThreshold > 0 && !st.allow() {
		if lastErr != nil {
			return nil, outBreakerOpen, 0, fmt.Errorf("federated: %s: %w (after: %w)", addr, ErrWorkerUnavailable, lastErr)
		}
		return nil, outBreakerOpen, 0, fmt.Errorf("federated: %s: %w", addr, ErrWorkerUnavailable)
	}
	sentUnder := st.currentEpoch()
	if class, epoch, err := c.revalidate(st, wl, sentUnder, reqs); class != outOK {
		return nil, class, epoch, err
	}
	resps, class, err := st.call(ctx, reqs)
	if class != outOK {
		return nil, class, 0, err
	}
	epoch := epochOf(resps)
	if sentUnder != 0 && epoch != 0 && epoch != sentUnder {
		if !allOK(resps) {
			return nil, outRestartedPartial, epoch, fmt.Errorf("federated: %s: %w", addr, ErrWorkerRestarted)
		}
		// The batch fully succeeded on the fresh process — it read nothing
		// that was lost (e.g. a READ/PUT-only batch). Accept it; what the
		// session created earlier heals lazily, before the next batch that
		// depends on it.
		class = outRestartedOK
	}
	c.record(wl, reqs, resps, epoch)
	return resps, class, epoch, nil
}

// allOK reports whether every response in a reply succeeded.
func allOK(resps []fedrpc.Response) bool {
	for _, r := range resps {
		if !r.OK {
			return false
		}
	}
	return true
}

// callOne issues a single request through the funnel, converting a
// per-request failure into an error.
func (c *Coordinator) callOne(addr string, req fedrpc.Request) (fedrpc.Response, error) {
	resps, err := c.call(addr, []fedrpc.Request{req})
	if err != nil {
		return fedrpc.Response{}, err
	}
	if !resps[0].OK {
		return resps[0], fmt.Errorf("federated: %s %s: %s", addr, req.Type, resps[0].Err)
	}
	return resps[0], nil
}

// Fetch retrieves one worker object by ID. With Policy.Recover, a GET for an
// object whose creation log survived a restart transparently replays the
// object first.
func (c *Coordinator) Fetch(addr string, id int64) (fedrpc.Payload, error) {
	resp, err := c.callOne(addr, fedrpc.Request{Type: fedrpc.Get, ID: id})
	if err != nil {
		return fedrpc.Payload{}, err
	}
	return resp.Data, nil
}

// ExecUDF invokes a registered UDF at one worker. UDF batches are never
// retried (RetryableBatch) and their outputs are never replayed: on a
// transport failure the original error surfaces unchanged, and any output
// binding the interrupted call may have created at the worker is reclaimed
// (sweep) so the failed call leaks no worker objects.
func (c *Coordinator) ExecUDF(addr string, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
	resp, err := c.callOne(addr, fedrpc.Request{Type: fedrpc.ExecUDF, UDF: call})
	if err != nil {
		if call.Output != 0 {
			c.sweep([]Partition{{Addr: addr, DataID: call.Output}})
		}
		return fedrpc.Payload{}, err
	}
	return resp.Data, nil
}

// delay is the un-jittered wait before retry attempt a (1-based): Backoff
// doubled per extra attempt, capped at maxBackoff.
func (p Policy) delay(attempt int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = defaultBackoff
	}
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// backoff waits out the jittered delay before retry attempt a. It returns
// early when the coordinator is closed, so shutdown is never stuck behind a
// retry schedule.
func (c *Coordinator) backoff(attempt int) error {
	t := time.NewTimer(c.fleet.jitter(c.fleet.policy.delay(attempt)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.done:
		return fmt.Errorf("federated: coordinator closed during retry backoff")
	}
}

// BytesSent returns the total bytes sent to all workers over this
// coordinator's fleet. Sessions sharing a fleet share its wires, so the
// count is fleet-wide; a standalone coordinator's private fleet makes it
// the per-coordinator number.
func (c *Coordinator) BytesSent() int64 { return c.fleet.BytesSent() }

// BytesReceived returns the total bytes received from all workers over
// this coordinator's fleet.
func (c *Coordinator) BytesReceived() int64 { return c.fleet.BytesReceived() }

// touchedAddrs snapshots the worker addresses this session has talked to.
func (c *Coordinator) touchedAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.touched))
	for addr := range c.touched {
		addrs = append(addrs, addr)
	}
	return addrs
}

// ClearAll sends CLEAR to every worker this session has touched, releasing
// the session's symbol-table objects. The CLEAR travels with the session
// namespace in its ID field, so on a shared fleet it removes only this
// session's bindings; a standalone coordinator's namespace is 0, which
// clears everything. Deferred requests are dropped first,
// never sent after the CLEAR: everything they would create or remove lives
// in the namespace the CLEAR empties (a deferred failure dropped here is
// moot for the same reason).
func (c *Coordinator) ClearAll() error {
	c.dropPending()
	var firstErr error
	for _, addr := range c.touchedAddrs() {
		if _, err := c.callOne(addr, fedrpc.Request{Type: fedrpc.Clear, ID: c.ns}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close cancels in-flight retry backoffs, drops whatever is still deferred
// (a closed coordinator sends nothing more; ClearAll is the teardown that
// releases worker objects), and — for a standalone coordinator owning its
// fleet — closes the fleet: every worker connection and the prober. A
// session on a shared fleet leaves the fleet untouched: its wires belong to
// every other session too. It is idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.dropPending()
	if c.ownFleet {
		c.fleet.Close()
	}
}
