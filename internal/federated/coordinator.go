package federated

import (
	"context"
	"fmt"
	"sort"
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
//   - CLEAR empties the symbol table either way.
//
// EXEC_UDF is excluded: UDFs may carry non-idempotent side effects (e.g.
// parameter-server gradient application), so their batches fail fast.
func RetryableBatch(reqs []fedrpc.Request) bool {
	for _, r := range reqs {
		switch r.Type {
		case fedrpc.Read, fedrpc.Put, fedrpc.Get, fedrpc.ExecInst, fedrpc.Clear:
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
// Every coordinator is a session of a Fleet (Fleet.NewSession): connections,
// worker health and the failure Policy live in the fleet, shared with its
// other sessions, while the session's object IDs are scoped by its namespace
// (fedrpc.MakeID) so concurrent sessions never collide in a worker's symbol
// table.
type Coordinator struct {
	fleet *Fleet
	ns    int64 // session namespace, >= 1

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

// newCoordinator builds a coordinator view of f under namespace ns.
func newCoordinator(f *Fleet, ns int64) *Coordinator {
	c := &Coordinator{
		fleet:   f,
		ns:      ns,
		touched: map[string]struct{}{},
		logs:    map[string]*workerLog{},
		boxes:   map[string]*outbox{},
		done:    make(chan struct{}),
		reg:     f.reg,
	}
	c.nextID.Store(1)
	return c
}

// Fleet returns the fleet this coordinator issues calls through.
func (c *Coordinator) Fleet() *Fleet { return c.fleet }

// Namespace returns the session namespace scoping this coordinator's object
// IDs.
func (c *Coordinator) Namespace() int64 { return c.ns }

// NewID allocates a session-unique data ID, namespace-qualified so that
// IDs from two sessions sharing a fleet can never collide in a worker's
// symbol table (fedrpc.MakeID).
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
	for tries, replays := 1, 0; ; {
		resps, class, epoch, err := c.attempt(ctx, st, wl, reqs)
		c.fleet.settle(st, class, epoch)
		switch verdict(class, retrySafe) {
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
	}
}

// attempt runs one attempt of a batch against a worker and classifies how it
// ended; the second return is the reply's instance epoch when there was a
// reply. Before the batch leaves, the session's state at the worker is
// brought up to the site's epoch (revalidate); afterwards the reply's epoch
// is compared with the one the batch was sent under, which is how a restart
// nobody has seen yet is detected.
func (c *Coordinator) attempt(ctx context.Context, st *site, wl *workerLog, reqs []fedrpc.Request) ([]fedrpc.Response, outcome, uint64, error) {
	addr := st.pool.Addr()
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

// Fetch retrieves one worker object by ID. A GET for an object the worker
// lost to a restart transparently replays the object from the creation log
// first.
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
// count is fleet-wide.
func (c *Coordinator) BytesSent() int64 { return c.fleet.BytesSent() }

// BytesReceived returns the total bytes received from all workers over
// this coordinator's fleet.
func (c *Coordinator) BytesReceived() int64 { return c.fleet.BytesReceived() }

// touchedAddrs snapshots the worker addresses this session has talked to,
// sorted as strings.
func (c *Coordinator) touchedAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.touched))
	for addr := range c.touched {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// ClearAll sends CLEAR to every worker this session has touched, releasing
// the session's symbol-table objects. The CLEAR travels with the session
// namespace in its ID field, so it removes only this session's bindings.
// Deferred requests are dropped first,
// never sent after the CLEAR: everything they would create or remove lives
// in the namespace the CLEAR empties (a deferred failure dropped here is
// moot for the same reason). The workers are cleared in string order of
// their addresses, and when several fail the error is that of the address
// that sorts first (lexically: "127.0.0.1:10" before "127.0.0.1:2").
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

// Close cancels in-flight retry backoffs and drops whatever is still
// deferred (a closed coordinator sends nothing more; ClearAll is the
// teardown that releases worker objects). The fleet stays open: its wires
// belong to every other session too. It is idempotent.
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
}
