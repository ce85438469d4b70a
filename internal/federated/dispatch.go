package federated

import (
	"context"
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
// that worker (exchange). Eager dispatch is the same path with an outbox
// that happens to be empty.

// The outbox is bounded by two fixed constants. They are not options: the
// buffer only ever holds the small broadcast operands and instructions of
// reply-less operations, so any value comfortably above one script
// iteration's worth and far below a partition behaves the same. A batch
// that does not fit is sent at once, as every batch was before deferral —
// multi-MB Distribute-sized PUTs therefore never wait in the buffer.
const (
	maxPendingRequests = 64
	maxPendingBytes    = 256 << 10
)

// flushBatchBuckets bounds the fed.flush_batch_requests histogram: a merged
// batch holds at most maxPendingRequests deferred requests plus the
// flushing call's own.
var flushBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// deferredReq is one buffered request and the operation that issued it (the
// name a failure is reported under when the request finally executes).
type deferredReq struct {
	req fedrpc.Request
	op  string
}

// outbox is one worker's FIFO of deferred requests.
type outbox struct {
	// order keeps per-worker program order on the wire, where pooled and
	// pipelined connections would otherwise let a later call overtake the
	// batch that carries earlier deferred requests: the exchange that takes
	// the pending requests holds it exclusively until its reply arrived,
	// exchanges that found the outbox empty share it.
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

// push appends one operation's requests, or reports false when they may not
// wait or do not fit under the caps (the caller then sends pending ++ reqs
// right away). A
// buffered PUT owns a copy of its payload, so a script that mutates the
// broadcast operand in place after the operation returned cannot change
// what is eventually sent.
func (b *outbox) push(op string, reqs []fedrpc.Request) bool {
	size := 0
	for _, r := range reqs {
		switch {
		case r.Type == fedrpc.ExecInst:
		case r.Type == fedrpc.Put && (r.Data.Kind == fedrpc.PayloadMatrix || r.Data.Kind == fedrpc.PayloadScalar):
			size += 8 * len(r.Data.Values)
		default:
			// Only idempotent PUT/EXEC_INST requests wait: a buffered
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
		b.reqs = append(b.reqs, deferredReq{req: r, op: op})
	}
	b.bytes += size
	return true
}

// acquire enters the worker's send order and hands over the pending
// requests. An empty outbox is entered shared and left alone: taking
// requests that a concurrent operation pushed meanwhile under the shared
// lock would let that operation's next call race the batch carrying them.
func (b *outbox) acquire() (pend []deferredReq, release func()) {
	b.mu.Lock()
	empty := len(b.reqs) == 0
	b.mu.Unlock()
	if empty {
		b.order.RLock()
		return nil, b.order.RUnlock
	}
	b.order.Lock()
	b.mu.Lock()
	pend, b.reqs, b.bytes = b.reqs, nil, 0
	b.mu.Unlock()
	return pend, b.order.Unlock
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
func (c *Coordinator) dropPending() {
	c.boxMu.Lock()
	defer c.boxMu.Unlock()
	for _, b := range c.boxes {
		b.mu.Lock()
		b.reqs, b.bytes = nil, 0
		b.mu.Unlock()
	}
}

// exchange is the one way a request batch reaches a worker: it sends
// pending ++ own to addr as a single batch through the retry/recovery
// funnel (sendCtx) and returns own's responses. With nothing pending it is
// exactly the eager call; with nothing of its own it is a flush.
//
// A deferred request that fails at the worker surfaces here, wrapped with
// the name of the operation that issued it; the flushing call then fails
// even if its own requests succeeded (its callers reclaim what those
// created). A transport failure loses the whole merged batch, like any
// failed call.
//
// Deferred requests are PUT/EXEC_INST only, so a merged batch has the
// retry class of its own part: RetryableBatch, neededIDs and record
// see the real request list, and mergeRetrySafe keeps that list as safe to
// re-issue as its requests are one by one. Under an EXEC_UDF that class is
// fail-fast, and
// the policy is merge, not flush-then-send: the pending requests ride with
// the UDF in one batch that is never retried (a UDF must not run twice), so
// a transport failure there loses them with the UDF instead of costing
// every UDF call a round trip of its own to protect requests whose
// operations fail with it anyway.
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

// mergeRetrySafe builds the batch pend ++ own, with the operation name of
// each pending request it kept, such that re-issuing the batch after a lost
// reply is safe. Every request is idempotent on its own (RetryableBatch),
// and so was every batch while an operation was a batch; a window that
// consumes an object an earlier batch delivered and then frees it —
// [b = f(a); rmvar a; GET b] — is not: executed once, its retry finds a
// gone. Such an rmvar input is taken out and returned in late, to lead the
// worker's next batch, where nothing reads it any more. Objects the batch
// itself creates before reading them are rebuilt by the retry and may be
// freed in place.
func mergeRetrySafe(pend []deferredReq, own []fedrpc.Request) (merged []fedrpc.Request, ops []string, late []int64) {
	merged = make([]fedrpc.Request, 0, len(pend)+len(own))
	created, read := map[int64]bool{}, map[int64]bool{}
	// add appends r less the frees that must wait; an rmvar left with
	// nothing to free is dropped unless its reply is one the caller indexes.
	add := func(r fedrpc.Request, droppable bool) bool {
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
					return false
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
		return true
	}
	for _, d := range pend {
		if add(d.req, true) {
			ops = append(ops, d.op)
		}
	}
	for _, r := range own {
		add(r, false)
	}
	return merged, ops, late
}

// sendMerged sends pend ++ own as one batch and strips the pending replies.
func (c *Coordinator) sendMerged(ctx context.Context, addr string, pend []deferredReq, own []fedrpc.Request) ([]fedrpc.Response, error) {
	merged, ops, late := mergeRetrySafe(pend, own)
	if len(late) > 0 {
		c.box(addr).unshift(deferredReq{req: rmvar(late...), op: "free"})
	}
	c.reg.Counter("fed.flushes").Inc()
	c.reg.Histogram("fed.flush_batch_requests", flushBatchBuckets).Observe(float64(len(merged)))
	// Tag the call's span, so /debug/rpcs explains a 9-request batch.
	ctx = obs.WithSpan(ctx, &obs.Span{Deferred: len(ops)})
	resps, err := c.sendCtx(ctx, addr, merged)
	if err != nil {
		return nil, fmt.Errorf("federated: batch carrying %d deferred requests (first: %s): %w",
			len(pend), pend[0].op, err)
	}
	for i, op := range ops {
		if !resps[i].OK {
			return nil, fmt.Errorf("federated: deferred %s at %s: %s: %s", op, addr, merged[i].Type, resps[i].Err)
		}
	}
	return resps[len(ops):], nil
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

// parallelCall issues, for each partition, the request batch produced by
// build — preceded by whatever is deferred for that worker — in parallel
// across workers, and returns the responses in partition order. It is the
// dispatch of operations that read their replies. Any transport or
// per-request failure aborts with the error of the lowest-indexed failing
// partition (deterministic reporting regardless of goroutine completion
// order); worker-side objects the aborted operation had already created on
// other partitions are reclaimed (sweep), so a failed federated operation
// does not leak PUT/READ/output bindings.
func (c *Coordinator) parallelCall(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request) ([][]fedrpc.Response, error) {
	return c.sendAll(op, parts, buildAll(parts, build), nil)
}

// deferCall is parallelCall for operations that discard their replies: each
// partition's batch is buffered at its worker's outbox and the operation
// returns at once. A batch that does not fit under the caps is sent
// immediately together with what is pending there. A failure of a buffered
// request surfaces at the exchange that carries it, named op.
func (c *Coordinator) deferCall(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request) error {
	batches := buildAll(parts, build)
	buffered := make([]bool, len(parts))
	n, all := 0, true
	for i, p := range parts {
		if buffered[i] = c.box(p.Addr).push(op, batches[i]); buffered[i] {
			n += len(batches[i])
		} else {
			all = false
		}
	}
	c.reg.Counter("fed.deferred_requests").Add(int64(n))
	if !all {
		if _, err := c.sendAll(op, parts, batches, buffered); err != nil {
			return err
		}
	}
	if c.flushEveryOp {
		return c.Flush()
	}
	return nil
}

// sendAll sends batches[i] to parts[i] for every partition not marked skip
// (already buffered), in parallel.
func (c *Coordinator) sendAll(op string, parts []Partition, batches [][]fedrpc.Request, skip []bool) ([][]fedrpc.Response, error) {
	out := make([][]fedrpc.Response, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		if skip != nil && skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			resps, err := c.exchange(obs.WithOp(context.Background(), op), addr, batches[i])
			if err == nil {
				for ri, r := range resps {
					if !r.OK {
						err = fmt.Errorf("federated: %s %s: %s", addr, batches[i][ri].Type, r.Err)
						break
					}
				}
			}
			out[i], errs[i] = resps, err
		}(i, p.Addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			var created []Partition
			for i, p := range parts {
				for _, id := range createdIDs(batches[i]) {
					created = append(created, Partition{Addr: p.Addr, DataID: id})
				}
			}
			c.sweep(created)
			return nil, err
		}
	}
	return out, nil
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
