package federated

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// RetryPolicy controls how the coordinator handles transport failures of
// idempotent request batches: it redials the worker and re-issues the batch
// with exponential backoff and seeded jitter. The zero value disables
// retries (fail fast), preserving strict at-most-once semantics.
type RetryPolicy struct {
	// Attempts is the total number of tries per batch (<=1 means no
	// retry).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles per
	// further attempt. Zero defaults to 50ms when Attempts > 1.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; zero means uncapped.
	MaxBackoff time.Duration
	// Seed feeds the jitter RNG, keeping retry schedules deterministic in
	// tests (the dp.go convention for seeded randomness).
	Seed int64
}

// DefaultRetryPolicy is a sensible WAN-facing policy: three attempts, 50ms
// base backoff doubling to a 2s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

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
// §4.1). With a RetryPolicy set it survives transient transport failures on
// idempotent batches by redialing and re-issuing.
//
// Connections and circuit breakers live in a Fleet: the legacy constructor
// NewCoordinator owns a private size-1 fleet (one connection per address,
// exactly the pre-pool behavior), while Fleet.NewSession returns a
// coordinator sharing a standing fleet with other sessions, its object IDs
// scoped by a session namespace (fedrpc.MakeID) so concurrent sessions
// never collide in a worker's symbol table.
type Coordinator struct {
	fleet    *Fleet
	ownFleet bool  // Close tears the fleet down too (legacy constructor)
	ns       int64 // session namespace; 0 = legacy unscoped
	retry    RetryPolicy
	// callTimeout, when positive, is the default per-attempt time budget:
	// callCtx wraps any caller context that carries no deadline of its own
	// in context.WithTimeout(ctx, callTimeout), so every RPC travels with a
	// deadline even when the application code above never set one. Set
	// before issuing operations (SetCallTimeout), like retry.
	callTimeout time.Duration

	mu      sync.Mutex
	touched map[string]struct{} // worker addrs this session has used; guarded by mu
	closed  bool                // guarded by mu
	done    chan struct{}       // closed by Close; cancels retry backoffs
	nextID  atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // jitter source; guarded by rngMu

	// Write-behind dispatch (dispatch.go): one outbox of deferred requests
	// per worker address. flushEveryOp is the tests' eager switch — every
	// deferring operation flushes before it returns — so deferred and eager
	// execution can be compared on one cluster; nothing outside the
	// package's tests sets it.
	boxMu        sync.Mutex
	boxes        map[string]*outbox // guarded by boxMu
	flushEveryOp bool

	// Restart-recovery state (recovery.go): the creation log per worker
	// address behind recMu, plus the health prober's join handle and the
	// observability counters behind Stats().
	recovery bool // EnableRecovery: creation log + replay on epoch change
	recMu    sync.Mutex
	states   map[string]*workerState // guarded by recMu
	probing  bool                    // a health prober goroutine is running (StartHealth); guarded by mu
	healthWg sync.WaitGroup

	statRestarts, statReplayed, statReplayFail atomic.Int64
	statProbes, statProbeFail                  atomic.Int64

	// reg mirrors the recovery/health counters and the retry funnel into
	// the observability registry (fed.* metrics), alongside the RPC-level
	// metrics the clients report themselves.
	reg *obs.Registry
}

// NewCoordinator creates a standalone coordinator owning a private fleet
// with one connection per worker address; opts configure TLS and network
// emulation for all worker connections. Retries are off by default — see
// SetRetryPolicy. For many sessions over one shared fleet, use NewFleet +
// Fleet.NewSession instead.
func NewCoordinator(opts fedrpc.Options) *Coordinator {
	return newCoordinator(NewFleet(opts, 1), true, 0)
}

// newCoordinator builds a coordinator view of f under namespace ns.
func newCoordinator(f *Fleet, ownFleet bool, ns int64) *Coordinator {
	c := &Coordinator{
		fleet:    f,
		ownFleet: ownFleet,
		ns:       ns,
		touched:  map[string]struct{}{},
		states:   map[string]*workerState{},
		boxes:    map[string]*outbox{},
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(0)),
		reg:      f.reg,
	}
	c.nextID.Store(1)
	return c
}

// Fleet returns the fleet this coordinator issues calls through.
func (c *Coordinator) Fleet() *Fleet { return c.fleet }

// Namespace returns the session namespace scoping this coordinator's object
// IDs (0 for a legacy standalone coordinator).
func (c *Coordinator) Namespace() int64 { return c.ns }

// SetRetryPolicy configures transport-failure handling for idempotent
// request batches. Call it before issuing federated operations.
func (c *Coordinator) SetRetryPolicy(p RetryPolicy) {
	c.retry = p
	c.rngMu.Lock()
	c.rng = rand.New(rand.NewSource(p.Seed))
	c.rngMu.Unlock()
}

// SetCallTimeout sets the default per-attempt time budget for every RPC
// whose caller context carries no deadline of its own (0 disables — calls
// then rely on the transport's coarse I/O timeout alone). The budget
// travels to the worker on the wire, bounds handler execution there, and
// is never refunded by a retry: a deadline blowout fails the batch
// immediately with fedrpc.ErrDeadlineExceeded. Call before issuing
// federated operations.
func (c *Coordinator) SetCallTimeout(d time.Duration) {
	c.callTimeout = d
}

// NewID allocates a session-unique data ID, namespace-qualified so that
// IDs from two sessions sharing a fleet can never collide in a worker's
// symbol table (fedrpc.MakeID; a legacy coordinator's namespace is 0 and
// its IDs are the bare sequence, exactly as before).
func (c *Coordinator) NewID() int64 { return fedrpc.MakeID(c.ns, c.nextID.Add(1)) }

// pool returns addr's connection pool, marking the address as touched by
// this session (the scope of ClearAll and the health prober).
func (c *Coordinator) pool(addr string) (*fedrpc.Pool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("federated: coordinator is closed")
	}
	c.touched[addr] = struct{}{}
	c.mu.Unlock()
	return c.fleet.pool(addr)
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
	return c.sharedClient(addr)
}

// sharedClient is Client without the flush, for the coordinator's own
// repair path (Repair), which replays delivered objects and depends on
// nothing that is still buffered.
func (c *Coordinator) sharedClient(addr string) (*fedrpc.Client, error) {
	pl, err := c.pool(addr)
	if err != nil {
		return nil, err
	}
	return pl.Shared(context.Background())
}

// call issues one request batch to addr, preceded by whatever is deferred
// for that worker (exchange), through the retry policy: transport
// failures of idempotent batches are retried with exponential backoff and
// jitter after the broken client transparently redials. Worker-reported
// per-request errors are never retried — they are deterministic application
// errors, not transport faults.
//
// With recovery enabled (EnableRecovery), call is also the restart-repair
// funnel: before each attempt it rematerializes any stale creation-log
// entries the batch reads (ensureIDs), and after each exchange it folds the
// reply's instance epoch into the per-worker state (observeEpoch). A
// detected restart marks the worker's log stale and grants a free replay
// round — bounded by maxRecoveries so a crash-looping worker surfaces as
// ErrWorkerRestarted rather than an endless replay loop. With recovery
// disabled, a detected restart under a batch that did not fully succeed
// fails fast with ErrWorkerRestarted: retrying against an empty symbol
// table could only produce misleading "unknown object" noise.
func (c *Coordinator) call(addr string, reqs []fedrpc.Request) ([]fedrpc.Response, error) {
	return c.exchange(context.Background(), addr, reqs)
}

// Call issues one request batch to addr through the session's retry,
// breaker, and recovery machinery — the same funnel every built-in
// federated operation uses. Callers composing their own operations (the
// service layer, tests) use it instead of raw clients so their traffic
// feeds the creation log and the worker's breaker like everything else.
func (c *Coordinator) Call(addr string, reqs ...fedrpc.Request) ([]fedrpc.Response, error) {
	return c.call(addr, reqs)
}

// sendCtx is the retry/recovery funnel under exchange, which hands it the
// real request list of a merged batch: the context's obs span/op labels
// flow through the RPC client into the span ring, and the retry funnel's
// own events (retries, transport errors) are counted in the registry.
//
// Two failure classes cut the retry loop short. A deadline blowout —
// locally (the context budget expired mid-exchange) or remotely (the
// worker answered with the typed DEADLINE_EXCEEDED code) — returns
// immediately with an error wrapping fedrpc.ErrDeadlineExceeded: the
// caller's budget is spent, and N retries would multiply the wait to N×
// the budget the caller asked for. And while the worker's circuit breaker
// is open (breaker.go), attempts fail fast with ErrWorkerUnavailable
// before touching the wire. Both classes still count as breaker failures,
// so a worker that keeps blowing budgets trips its breaker just like one
// that drops connections.
func (c *Coordinator) sendCtx(ctx context.Context, addr string, reqs []fedrpc.Request) ([]fedrpc.Response, error) {
	isHealth := healthBatch(reqs)
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}
	attempts := c.retry.Attempts
	if attempts < 1 || !RetryableBatch(reqs) {
		attempts = 1
	}
	var lastErr error
	recoveries := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.reg.Counter("fed.retries").Inc()
			if err := c.backoff(attempt); err != nil {
				return nil, err
			}
		}
		if err := c.breakerAllow(addr, isHealth); err != nil {
			c.reg.Counter("fed.breaker.rejections").Inc()
			if lastErr != nil {
				// Mid-retry trip: the root cause outranks the load-shed.
				return nil, fmt.Errorf("federated: %s: %w (after: %v)", addr, ErrWorkerUnavailable, lastErr)
			}
			return nil, fmt.Errorf("federated: %s: %w", addr, err)
		}
		resps, verdict, err := c.attemptCall(ctx, addr, reqs, isHealth)
		switch verdict {
		case attemptDone:
			return resps, nil
		case attemptFatal:
			return nil, err
		case attemptReplay:
			recoveries++
			if recoveries > maxRecoveries {
				return nil, fmt.Errorf("federated: %s: %w %d times during one operation (crash loop?)",
					addr, ErrWorkerRestarted, recoveries)
			}
			lastErr = err
			attempt-- // the replay round is free: it is repair, not a retry
		default: // attemptRetry
			lastErr = err
		}
	}
	return nil, lastErr
}

// attemptVerdict classifies one attemptCall outcome for the retry loop.
type attemptVerdict int

const (
	attemptDone   attemptVerdict = iota // success: return the responses
	attemptFatal                        // unretryable: surface the error now
	attemptRetry                        // transient: consume a retry attempt
	attemptReplay                       // worker restarted: free repair round
)

// attemptCall runs one attempt of a batch against addr over a connection
// checked out of the fleet pool for the duration of the exchange — the
// whole reason sessions sharing a fleet do not serialize behind one
// client's exchange lock. The checkout is returned on every path; a broken
// client goes back too (its next user transparently redials).
func (c *Coordinator) attemptCall(ctx context.Context, addr string, reqs []fedrpc.Request, isHealth bool) ([]fedrpc.Response, attemptVerdict, error) {
	pl, err := c.pool(addr)
	if err != nil {
		return nil, attemptFatal, err // coordinator or fleet closed
	}
	cl, err := pl.Get(ctx)
	if err != nil {
		// Dial failure or checkout starved past the caller's budget.
		c.reg.Counter("fed.transport_errors").Inc()
		c.breakerFailure(addr)
		if ctx.Err() != nil {
			return nil, attemptFatal, err // the budget is spent; never retry
		}
		return nil, attemptRetry, err
	}
	defer pl.Put(cl)
	if c.recovery {
		transient, err := c.ensureIDs(addr, cl, neededIDs(reqs), true)
		if err != nil {
			if !transient {
				return nil, attemptFatal, err // ErrUnrecoverable or replay rejected
			}
			return nil, attemptRetry, err
		}
	}
	resps, err := cl.CallCtx(ctx, reqs...)
	if err != nil {
		// Call tore the broken transport down; the next attempt redials
		// through the pooled client.
		c.reg.Counter("fed.transport_errors").Inc()
		c.breakerFailure(addr)
		if errors.Is(err, fedrpc.ErrDeadlineExceeded) {
			c.reg.Counter("fed.deadline_exceeded").Inc()
			return nil, attemptFatal, err // the budget is spent; never retry
		}
		if ctx.Err() != nil {
			return nil, attemptFatal, err // cancelled caller: retrying is pointless
		}
		return nil, attemptRetry, err
	}
	if i := deadlineIdx(resps); i >= 0 {
		// The worker (or the server's reply backstop) abandoned the
		// batch at budget expiry and said so with the typed code.
		c.reg.Counter("fed.deadline_exceeded").Inc()
		c.breakerFailure(addr)
		return nil, attemptFatal, fmt.Errorf("federated: %s %s: %w: %s",
			addr, reqs[i].Type, fedrpc.ErrDeadlineExceeded, resps[i].Err)
	}
	c.breakerSuccess(addr, isHealth)
	if c.observeEpoch(addr, epochOf(resps)) {
		if allOK(resps) {
			// The batch fully succeeded on the fresh process — it read
			// nothing that was lost (e.g. a READ/PUT-only batch, or a
			// health ping). Accept it; the stale marks observeEpoch set
			// will heal lazily on the next dependent operation.
			c.recordBatch(addr, reqs, resps)
			return resps, attemptDone, nil
		}
		if !c.recovery {
			return nil, attemptFatal, fmt.Errorf("federated: %s: %w (recovery disabled)", addr, ErrWorkerRestarted)
		}
		if !RetryableBatch(reqs) {
			// An EXEC_UDF batch interrupted by a restart: side effects
			// cannot be replayed, so the session must fail fast.
			return nil, attemptFatal, fmt.Errorf("federated: %s: EXEC_UDF batch interrupted by worker restart: %w",
				addr, ErrUnrecoverable)
		}
		return nil, attemptReplay, fmt.Errorf("federated: %s: %w", addr, ErrWorkerRestarted)
	}
	c.recordBatch(addr, reqs, resps)
	return resps, attemptDone, nil
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

// healthBatch reports whether every request is a HEALTH ping — probe
// traffic, which bypasses the circuit breaker (it is the recovery signal)
// and feeds its open → half-open transition on success.
func healthBatch(reqs []fedrpc.Request) bool {
	for _, r := range reqs {
		if r.Type != fedrpc.Health {
			return false
		}
	}
	return len(reqs) > 0
}

// deadlineIdx returns the index of the first response carrying the typed
// DEADLINE_EXCEEDED code, or -1.
func deadlineIdx(resps []fedrpc.Response) int {
	for i, r := range resps {
		if r.Code == fedrpc.CodeDeadlineExceeded {
			return i
		}
	}
	return -1
}

// callOne issues a single request through the retry policy, converting a
// per-request failure into an error.
func (c *Coordinator) callOne(addr string, req fedrpc.Request) (fedrpc.Response, error) {
	resps, err := c.call(addr, []fedrpc.Request{req})
	if err != nil {
		return fedrpc.Response{}, err
	}
	if !resps[0].OK {
		if resps[0].Code == fedrpc.CodeDeadlineExceeded {
			// Normally typed upstream by attemptCall; kept here so a typed
			// reply can never lose its class on this path either.
			return resps[0], fmt.Errorf("federated: %s %s: %w: %s",
				addr, req.Type, fedrpc.ErrDeadlineExceeded, resps[0].Err)
		}
		return resps[0], fmt.Errorf("federated: %s %s: %s", addr, req.Type, resps[0].Err)
	}
	return resps[0], nil
}

// Fetch retrieves one worker object by ID through the retry (and, when
// enabled, recovery) path. A GET for an object whose creation log survived
// a restart transparently replays the object first.
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

// backoff waits before retry attempt a (1-based): Backoff doubled per extra
// attempt, capped at MaxBackoff, jittered to [0.5x, 1.5x) from the seeded
// RNG. It returns early when the coordinator is closed, so shutdown is
// never stuck behind a retry schedule.
func (c *Coordinator) backoff(attempt int) error {
	d := c.retry.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if max := c.retry.MaxBackoff; max > 0 && d >= max {
			d = max
			break
		}
	}
	if max := c.retry.MaxBackoff; max > 0 && d > max {
		d = max
	}
	c.rngMu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	t := time.NewTimer(time.Duration(float64(d) * jitter))
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
// count is fleet-wide; a legacy standalone coordinator's private fleet
// makes it exactly the old per-coordinator number.
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
// session's bindings; a legacy coordinator's namespace is 0, which keeps
// the old clear-everything semantics. Deferred requests are dropped first,
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
// releases worker objects), joins the health prober if one is running, and
// — for a standalone coordinator owning its fleet — closes every worker
// connection. A session on a shared fleet leaves the fleet untouched: its
// wires belong to every other session too. It is idempotent. The prober join
// happens outside c.mu: the prober's probes go through pool/call, which take
// c.mu themselves.
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
	c.healthWg.Wait()
}
