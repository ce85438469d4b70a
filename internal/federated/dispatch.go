package federated

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// This file is the coordinator's write-behind dispatch (DESIGN.md §3.2,
// "Dispatch"). A federated operation whose caller reads nothing from the
// reply — a broadcast + instruction whose output stays federated, an rmvar —
// costs no round trip of its own: its requests are appended to the target
// worker's outbox and travel with the next call that needs a value from
// that worker (exchange). A read waits in the same outbox with a reply slot
// (fetch.go) until it is forced, alone or in a group; eager dispatch is the
// same path with an outbox that happens to hold nothing else.

// The outbox is bounded by two fixed constants. They are not options: the
// buffer only ever holds the small broadcast operands and instructions of
// reply-less operations and the reads of one script step before they are
// forced, so any value comfortably above one step's worth and far below a
// partition behaves the same. A batch that does not fit is sent at once, as
// every batch was before deferral — multi-MB Distribute-sized PUTs
// therefore never wait in the buffer.
const (
	maxPendingRequests = 128
	maxPendingBytes    = 256 << 10
)

// flushBatchBuckets bounds the fed.flush_batch_requests histogram: a merged
// batch holds at most maxPendingRequests pending requests plus the flushing
// call's own.
var flushBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// deferredReq is one buffered request and the operation that issued it (the
// name a failure is reported under when the request finally executes).
// reply is the slot of the read the request belongs to, nil for a reply-less
// request: the exchange that carries a read's batch hands its responses over
// there instead of to its own caller.
type deferredReq struct {
	req   fedrpc.Request
	op    string
	reply *reply
}

// reply is where one partition's share of a read waits for the exchange
// that carries it. It is filled once, with the batch's responses or with the
// failure that lost them; every path that takes a read out of the outbox
// fills its slot (sendMerged, sendNow, dropPending), so waiting on one never
// outlasts the carrying call's deadline.
type reply struct {
	done  chan struct{} // closed when filled
	mu    sync.Mutex
	resps []fedrpc.Response // guarded by mu
	err   error             // guarded by mu
}

func newReply() *reply { return &reply{done: make(chan struct{})} }

// fill records the outcome of the exchange that carried the batch; a slot
// already filled keeps its first outcome.
func (r *reply) fill(resps []fedrpc.Response, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.done:
	default:
		r.resps, r.err = resps, err
		close(r.done)
	}
}

// filled reports whether an exchange has carried the batch.
func (r *reply) filled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// wait returns the slot's outcome once it is filled.
func (r *reply) wait() ([]fedrpc.Response, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resps, r.err
}

// errDropped fills the slots of reads that teardown discarded unsent.
var errDropped = errors.New("federated: read dropped unsent by ClearAll or Close")

// outbox is one worker's FIFO of deferred requests.
type outbox struct {
	// order keeps per-worker program order on the wire, where pooled and
	// pipelined connections would otherwise let a later call overtake the
	// batch that carries earlier deferred requests: the exchange that takes
	// pending writes holds it exclusively until its reply arrived,
	// exchanges that found only reads or nothing pending share it.
	order sync.RWMutex

	mu    sync.Mutex
	reqs  []deferredReq // guarded by mu
	bytes int           // payload bytes held by reqs; guarded by mu
}

// box returns (creating if needed) addr's outbox.
func (c *Coordinator) box(addr string) *outbox {
	c.boxMu.Lock()
	defer c.boxMu.Unlock()
	b, ok := c.boxes[addr]
	if !ok {
		b = &outbox{}
		c.boxes[addr] = b
	}
	return b
}

// boxAddrs lists, sorted, the workers that currently hold deferred requests.
func (c *Coordinator) boxAddrs() []string {
	c.boxMu.Lock()
	defer c.boxMu.Unlock()
	var addrs []string
	for addr, b := range c.boxes {
		b.mu.Lock()
		if len(b.reqs) > 0 {
			addrs = append(addrs, addr)
		}
		b.mu.Unlock()
	}
	sort.Strings(addrs)
	return addrs
}

// push appends one operation's requests — a read's with its reply slot rep,
// a reply-less operation's with nil — or reports false when they may not
// wait or do not fit under the caps (the caller then sends pending ++ reqs
// right away). A buffered PUT owns a copy of its payload, so a script that
// mutates the broadcast operand in place after the operation returned cannot
// change what is eventually sent.
func (b *outbox) push(op string, reqs []fedrpc.Request, rep *reply) bool {
	size := 0
	for _, r := range reqs {
		switch {
		case r.Type == fedrpc.ExecInst, r.Type == fedrpc.Get:
		case r.Type == fedrpc.Put && (r.Data.Kind == fedrpc.PayloadMatrix || r.Data.Kind == fedrpc.PayloadScalar):
			size += 8 * len(r.Data.Values)
		default:
			// Only idempotent PUT/GET/EXEC_INST requests wait: a buffered
			// EXEC_UDF would make every batch it rides in non-retryable,
			// and frames and byte blobs are bulk data.
			return false
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.reqs)+len(reqs) > maxPendingRequests || b.bytes+size > maxPendingBytes {
		return false
	}
	for _, r := range reqs {
		if r.Type == fedrpc.Put {
			r.Data.Values = append([]float64(nil), r.Data.Values...)
		}
		b.reqs = append(b.reqs, deferredReq{req: r, op: op, reply: rep})
	}
	b.bytes += size
	return true
}

// acquire enters the worker's send order and hands over the pending
// requests. Reads alone are taken under the shared order, as an empty
// outbox is entered: a read's batch creates nothing a later call could need
// (its temporaries are freed in the batch), so calls that carry no writes
// may overlap, as eager calls always could. Any pending write takes the
// order exclusively. Writes that a concurrent operation pushed after the
// check are not taken under the shared lock — that would let that
// operation's next call race the batch carrying them — but exclusively.
func (b *outbox) acquire() (pend []deferredReq, release func()) {
	if b.readsOnly() {
		b.order.RLock()
		b.mu.Lock()
		if onlyReads(b.reqs) {
			pend, b.reqs, b.bytes = b.reqs, nil, 0
			b.mu.Unlock()
			return pend, b.order.RUnlock
		}
		b.mu.Unlock()
		b.order.RUnlock()
	}
	b.order.Lock()
	b.mu.Lock()
	pend, b.reqs, b.bytes = b.reqs, nil, 0
	b.mu.Unlock()
	return pend, b.order.Unlock
}

// readsOnly reports whether everything pending is a read (or nothing is).
func (b *outbox) readsOnly() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return onlyReads(b.reqs)
}

// onlyReads reports whether every request belongs to a read.
func onlyReads(reqs []deferredReq) bool {
	for _, d := range reqs {
		if d.reply == nil {
			return false
		}
	}
	return true
}

// unshift puts d in front of what is pending: the frees a batch held back
// lead the next one. They bypass the caps — one payload-free request per
// sent batch.
func (b *outbox) unshift(d deferredReq) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reqs = append([]deferredReq{d}, b.reqs...)
}

// dropPending discards every worker's pending requests; only the teardown
// paths (ClearAll, Close) use it, where the namespace CLEAR makes them moot.
// A dropped read fails with errDropped rather than wait for an exchange
// that will never carry it.
func (c *Coordinator) dropPending() {
	var dropped []deferredReq
	c.boxMu.Lock()
	for _, b := range c.boxes {
		b.mu.Lock()
		dropped = append(dropped, b.reqs...)
		b.reqs, b.bytes = nil, 0
		b.mu.Unlock()
	}
	c.boxMu.Unlock()
	deliver(dropped, nil, errDropped)
}

// exchange is the one way a request batch reaches a worker: it sends
// pending ++ own to addr as a single batch through the retry/recovery
// funnel (sendCtx) and returns own's responses. With nothing pending it is
// exactly the eager call; with nothing of its own it is a flush.
//
// A deferred request that fails at the worker surfaces here, wrapped with
// the name of the operation that issued it; the flushing call then fails
// even if its own requests succeeded (its callers reclaim what those
// created). A pending read's batch gets its responses in its reply slot,
// failed ones included: they are its reader's to report. A transport
// failure loses the whole merged batch, like any failed call, and every
// read in it gets that error.
//
// Deferred requests and pending reads are PUT/GET/EXEC_INST only, so a
// merged batch has the retry class of its own part: RetryableBatch,
// neededIDs and record see the real request list, and mergeRetrySafe keeps
// that list as safe to re-issue as its requests are one by one. Under an
// EXEC_UDF that class is fail-fast, and the policy is merge, not
// flush-then-send: the pending requests ride with the UDF in one batch that
// is never retried (a UDF must not run twice), so a transport failure there
// loses them with the UDF instead of costing every UDF call a round trip of
// its own to protect requests whose operations fail with it anyway.
func (c *Coordinator) exchange(ctx context.Context, addr string, own []fedrpc.Request) ([]fedrpc.Response, error) {
	pend, release := c.box(addr).acquire()
	// The send order is held across the exchange by design: it is what
	// keeps a later call from overtaking the batch that carries earlier
	// deferred requests. Nothing else is acquired under it except the
	// per-worker replay lock inside sendCtx, and every call is
	// deadline-bounded.
	defer release()
	if len(pend) == 0 {
		if len(own) == 0 {
			return nil, nil
		}
		return c.sendCtx(ctx, addr, own)
	}
	return c.sendMerged(ctx, addr, pend, own)
}

// mergeRetrySafe builds the batch pend ++ own, with the pending entries it
// kept (each with the request as sent), such that re-issuing the batch after
// a lost reply is safe. Every request is idempotent on its own
// (RetryableBatch), and so was every batch while an operation was a batch; a
// window that consumes an object an earlier batch delivered and then frees
// it — [b = f(a); rmvar a; GET b] — is not: executed once, its retry finds a
// gone. Such an rmvar input is taken out and returned in late, to lead the
// worker's next batch, where nothing reads it any more. Objects the batch
// itself creates before reading them are rebuilt by the retry and may be
// freed in place. A read's requests keep their places, emptied rmvars
// included, so its responses line up with its batch.
func mergeRetrySafe(pend []deferredReq, own []fedrpc.Request) (merged []fedrpc.Request, kept []deferredReq, late []int64) {
	merged = make([]fedrpc.Request, 0, len(pend)+len(own))
	created, read := map[int64]bool{}, map[int64]bool{}
	// add appends r less the frees that must wait; an rmvar left with
	// nothing to free is dropped unless its reply is one a caller indexes.
	add := func(r fedrpc.Request, droppable bool) (fedrpc.Request, bool) {
		if r.Type == fedrpc.ExecInst && r.Inst != nil && r.Inst.Opcode == "rmvar" {
			var keep []int64
			for _, id := range r.Inst.Inputs {
				if read[id] {
					late = append(late, id)
				} else {
					keep = append(keep, id)
				}
			}
			if len(keep) < len(r.Inst.Inputs) {
				if len(keep) == 0 && droppable {
					return r, false
				}
				r = rmvar(keep...)
			}
		} else {
			one := []fedrpc.Request{r}
			for _, id := range neededIDs(one) {
				if !created[id] {
					read[id] = true
				}
			}
			for _, id := range createdIDs(one) {
				created[id] = true
			}
		}
		merged = append(merged, r)
		return r, true
	}
	for _, d := range pend {
		if r, ok := add(d.req, d.reply == nil); ok {
			d.req = r
			kept = append(kept, d)
		}
	}
	for _, r := range own {
		add(r, false)
	}
	return merged, kept, late
}

// deliver hands each read in reqs its share of an exchange's outcome: its
// contiguous run of responses, or err when the exchange lost them.
func deliver(reqs []deferredReq, resps []fedrpc.Response, err error) {
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j].reply == reqs[i].reply {
			j++
		}
		if rep := reqs[i].reply; rep != nil {
			if err != nil {
				rep.fill(nil, err)
			} else {
				rep.fill(resps[i:j], nil)
			}
		}
		i = j
	}
}

// sendMerged sends pend ++ own as one batch, hands the pending reads their
// responses and returns own's. A batch that carried reply-less requests is
// a flush: it is counted as one, its span says how many rode along, and it
// fails if one of them failed at the worker. A pending read's own failure
// is its reader's to report (Fetch), not the carrier's.
func (c *Coordinator) sendMerged(ctx context.Context, addr string, pend []deferredReq, own []fedrpc.Request) ([]fedrpc.Response, error) {
	merged, kept, late := mergeRetrySafe(pend, own)
	if len(late) > 0 {
		c.box(addr).unshift(deferredReq{req: rmvar(late...), op: "free"})
	}
	deferred, first := 0, ""
	for _, d := range kept {
		if d.reply == nil {
			if deferred == 0 {
				first = d.op
			}
			deferred++
		}
	}
	if deferred > 0 {
		c.reg.Counter("fed.flushes").Inc()
		c.reg.Histogram("fed.flush_batch_requests", flushBatchBuckets).Observe(float64(len(merged)))
		// Tag the call's span, so /debug/rpcs explains a 9-request batch.
		ctx = obs.WithSpan(ctx, &obs.Span{Deferred: deferred})
	}
	resps, err := c.sendCtx(ctx, addr, merged)
	if err != nil {
		if deferred > 0 {
			err = fmt.Errorf("federated: batch carrying %d deferred requests (first: %s): %w", deferred, first, err)
		}
		deliver(kept, nil, err)
		return nil, err
	}
	deliver(kept, resps, nil)
	for i, d := range kept {
		if d.reply == nil && !resps[i].OK {
			return nil, fmt.Errorf("federated: deferred %s at %s: %s: %s", d.op, addr, merged[i].Type, resps[i].Err)
		}
	}
	return resps[len(kept):], nil
}

// flushAddr sends addr's pending requests now. Frees the first batch held
// back (mergeRetrySafe) go out in a second one; without them the second
// exchange finds the outbox empty and sends nothing.
func (c *Coordinator) flushAddr(addr string) error {
	for round := 0; round < 2; round++ {
		if _, err := c.exchange(obs.WithOp(context.Background(), "flush"), addr, nil); err != nil {
			return err
		}
	}
	return nil
}

// Flush sends every worker's deferred requests now, in parallel, and
// reports the first failure in address order. Federated operations flush on
// their own whenever they need a value; Flush is for callers that want the
// workers' state settled at a point of their choosing — the end of a
// service operation, a test inspecting a worker's symbol table.
func (c *Coordinator) Flush() error {
	addrs := c.boxAddrs()
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = c.flushAddr(addr)
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildAll materializes every partition's request batch.
func buildAll(parts []Partition, build func(i int, p Partition) []fedrpc.Request) [][]fedrpc.Request {
	batches := make([][]fedrpc.Request, len(parts))
	for i, p := range parts {
		batches[i] = build(i, p)
	}
	return batches
}

// deferCall is parallelCall for operations that discard their replies: each
// partition's batch is buffered at its worker's outbox and the operation
// returns at once. A batch that does not fit under the caps is sent
// immediately together with what is pending there. A failure of a buffered
// request surfaces at the exchange that carries it, named op.
func (c *Coordinator) deferCall(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request) error {
	batches := buildAll(parts, build)
	var now []int
	n := 0
	for i, p := range parts {
		if c.box(p.Addr).push(op, batches[i], nil) {
			n += len(batches[i])
		} else {
			now = append(now, i)
		}
	}
	c.reg.Counter("fed.deferred_requests").Add(int64(n))
	errs := make([]error, len(parts))
	c.sendNow(op, parts, batches, now, func(i int, resps []fedrpc.Response, err error) {
		if err == nil {
			err = firstFailure(parts[i].Addr, batches[i], resps)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			c.sweep(createdAll(parts, batches))
			return err
		}
	}
	if c.flushEveryOp {
		return c.Flush()
	}
	return nil
}

// sendNow sends batches[i] to parts[i] for every i in now, in parallel, each
// with what is pending at its worker, and hands each outcome to done.
func (c *Coordinator) sendNow(op string, parts []Partition, batches [][]fedrpc.Request, now []int,
	done func(i int, resps []fedrpc.Response, err error)) {
	var wg sync.WaitGroup
	for _, i := range now {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps, err := c.exchange(obs.WithOp(context.Background(), op), parts[i].Addr, batches[i])
			done(i, resps, err)
		}(i)
	}
	wg.Wait()
}

// remove defers one rmvar per worker over the given (Addr, DataID) pairs.
func (c *Coordinator) remove(op string, objs []Partition) error {
	if len(objs) == 0 {
		return nil
	}
	ids := map[string][]int64{}
	var parts []Partition
	for _, o := range objs {
		if _, ok := ids[o.Addr]; !ok {
			parts = append(parts, Partition{Addr: o.Addr})
		}
		ids[o.Addr] = append(ids[o.Addr], o.DataID)
	}
	return c.deferCall(op, parts, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{rmvar(ids[p.Addr]...)}
	})
}

// sweep releases the worker-side objects a failed operation leaves behind.
// Riding the outbox keeps the rmvar behind any still-buffered creation of
// the same object and takes it through retry, breaker and creation log like
// every other request. rmvar of an ID that was never bound is a no-op at
// the worker, so the sweep is safe whether or not the creation happened. It
// is best-effort: the caller is already reporting the failure that caused
// it, and whatever an unreachable worker keeps dies with the session CLEAR.
func (c *Coordinator) sweep(objs []Partition) {
	_ = c.remove("cleanup", objs)
}

// rmvar builds the instruction request that removes the given bindings.
func rmvar(ids ...int64) fedrpc.Request {
	return fedrpc.Request{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: ids}}
}

// createdIDs lists the symbol-table bindings a request batch creates:
// READ/PUT targets and instruction/UDF outputs. Bindings the batch itself
// removes (rmvar) are not creations.
func createdIDs(reqs []fedrpc.Request) []int64 {
	var ids []int64
	for _, r := range reqs {
		switch r.Type {
		case fedrpc.Read, fedrpc.Put:
			ids = append(ids, r.ID)
		case fedrpc.ExecInst:
			if r.Inst != nil && r.Inst.Opcode != "rmvar" && r.Inst.Output != 0 {
				ids = append(ids, r.Inst.Output)
			}
		case fedrpc.ExecUDF:
			if r.UDF != nil && r.UDF.Output != 0 {
				ids = append(ids, r.UDF.Output)
			}
		}
	}
	return ids
}
