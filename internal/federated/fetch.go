package federated

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/obs"
)

// A Value is the pending result of a federated read: an operation whose
// replies the caller wants — an aggregate, a product summed at the
// coordinator, a consolidation. Queueing it appends each partition's batch
// to its worker's outbox with a reply slot, like a deferred write; whichever
// exchange carries the batch fills the slot. Fetch forces a group of values
// with one exchange per worker that still holds a share of them, and the
// eager methods (AggFull, TSMM, ...) are a fetch of one, so independent
// reads of a script step share one round trip and everything else costs
// what it did.
type Value struct {
	c       *Coordinator
	op      string
	seq     uint64 // program order among the coordinator's reads
	parts   []Partition
	batches [][]fedrpc.Request
	replies []*reply
	// finish combines the per-partition responses into the value; nil
	// keeps the raw responses (parallelCall).
	finish func(resps [][]fedrpc.Response) (*matrix.Dense, error)

	mu    sync.Mutex
	done  bool                // guarded by mu
	val   *matrix.Dense       // guarded by mu
	resps [][]fedrpc.Response // guarded by mu
	err   error               // guarded by mu
}

// ReadError is the failure of one federated read, under the name of the
// operation that issued it. Fetch reports the first failed read of a group
// in program order; Unwrap exposes the cause — a worker's refusal, or a
// transport failure such as ErrWorkerRestarted or
// fedrpc.ErrDeadlineExceeded.
type ReadError struct {
	Op  string
	Err error
}

func (e *ReadError) Error() string { return e.Err.Error() }

// Unwrap returns the cause.
func (e *ReadError) Unwrap() error { return e.Err }

// failedValue is a read that failed before it was queued (a shape or
// partitioning mismatch); fetching it reports err.
func failedValue(op string, err error) *Value {
	return &Value{op: op, done: true, err: &ReadError{Op: op, Err: err}}
}

// queue builds every partition's batch and appends it to its worker's
// outbox with a reply slot. A batch that may not wait there (an EXEC_UDF or
// READ, bulk data, or one over the caps) is sent at once with what is
// pending, as a deferred write would be, and its slot filled from that
// exchange; the sends run in parallel and queue returns when they are done,
// so no later operation of the caller can overtake them.
func (c *Coordinator) queue(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request,
	finish func([][]fedrpc.Response) (*matrix.Dense, error)) *Value {
	v := &Value{c: c, op: op, seq: c.reads.Add(1), parts: parts, batches: buildAll(parts, build),
		replies: make([]*reply, len(parts)), finish: finish}
	var now []int
	for i, p := range parts {
		v.replies[i] = newReply()
		if !c.box(p.Addr).push(op, v.batches[i], v.replies[i]) {
			now = append(now, i)
		}
	}
	c.sendNow(op, parts, v.batches, now, func(i int, resps []fedrpc.Response, err error) {
		v.replies[i].fill(resps, err)
	})
	return v
}

// parallelCall issues, for each partition, the request batch produced by
// build — preceded by whatever is deferred for that worker — in parallel
// across workers, and returns the responses in partition order: a read
// queued and fetched alone. Any transport or per-request failure aborts with
// the error of the lowest-indexed failing partition (deterministic reporting
// regardless of goroutine completion order); worker-side objects the aborted
// operation had already created on other partitions are reclaimed (sweep),
// so a failed federated operation does not leak PUT/READ/output bindings.
func (c *Coordinator) parallelCall(op string, parts []Partition, build func(i int, p Partition) []fedrpc.Request) ([][]fedrpc.Response, error) {
	v := c.queue(op, parts, build, nil)
	if err := Fetch(v); err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.resps, nil
}

// Get returns the value, fetching it alone if no exchange has carried it
// yet.
func (v *Value) Get() (*matrix.Dense, error) {
	if err := Fetch(v); err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.val, nil
}

// Fetch forces a group of values: one exchange to every worker that still
// holds an unsent share of any of them, all in parallel, each carrying
// everything pending there. Values already delivered — by an earlier fetch,
// or by an unrelated call that happened to carry their batches — cost
// nothing.
//
// Errors: the group fails with the first failed read in program order (the
// order the values were queued), as a *ReadError naming its operation; the
// other values keep their own outcomes. Failing that, it fails with a
// deferred write that one of its exchanges carried and that failed at the
// worker, as any call carrying one does. A failed read's worker-side
// temporaries are reclaimed, and a read that teardown dropped unsent fails
// rather than wait.
func Fetch(vs ...*Value) error {
	group := make([]*Value, 0, len(vs))
	for _, v := range vs {
		if v != nil {
			group = append(group, v)
		}
	}
	sort.SliceStable(group, func(i, j int) bool { return group[i].seq < group[j].seq })

	type site struct {
		c    *Coordinator
		addr string
	}
	var sites []site
	ops := map[site]string{}
	for _, v := range group {
		if v.resolved() {
			continue
		}
		for i, p := range v.parts {
			s := site{v.c, p.Addr}
			if _, ok := ops[s]; !ok && !v.replies[i].filled() {
				ops[s] = v.op
				sites = append(sites, s)
			}
		}
	}
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s site) {
			defer wg.Done()
			_, errs[i] = s.c.exchange(obs.WithOp(context.Background(), ops[s]), s.addr, nil)
		}(i, s)
	}
	wg.Wait()

	var first error
	for _, v := range group {
		if err := v.resolve(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resolved reports whether the value's outcome is settled.
func (v *Value) resolved() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.done
}

// resolve settles the value from its reply slots, once, after waiting for
// any still in flight in another caller's exchange: the first partition that
// failed (a lost exchange, a refused request) fails the read and its
// temporaries are swept; otherwise finish combines the responses.
func (v *Value) resolve() error {
	for _, r := range v.replies {
		r.wait()
	}
	settled, err := v.settle()
	if err != nil && settled {
		v.c.sweep(createdAll(v.parts, v.batches))
	}
	return err
}

// settle records the value's outcome unless it is already settled, and
// reports whether this call settled it.
func (v *Value) settle() (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.done {
		return false, v.err
	}
	resps := make([][]fedrpc.Response, len(v.parts))
	var err error
	for i, p := range v.parts {
		rs, rerr := v.replies[i].wait()
		if rerr == nil {
			rerr = firstFailure(p.Addr, v.batches[i], rs)
		}
		if rerr != nil {
			err = &ReadError{Op: v.op, Err: rerr}
			break
		}
		resps[i] = rs
	}
	if err == nil && v.finish != nil {
		if v.val, err = v.finish(resps); err != nil {
			err = &ReadError{Op: v.op, Err: err}
		}
	}
	if err == nil {
		v.resps = resps
	}
	v.done, v.err = true, err
	return true, err
}

// firstFailure converts the first failed response of a batch into an error.
func firstFailure(addr string, batch []fedrpc.Request, resps []fedrpc.Response) error {
	for i, r := range resps {
		if !r.OK {
			return fmt.Errorf("federated: %s %s: %s", addr, batch[i].Type, r.Err)
		}
	}
	return nil
}

// createdAll lists the objects the batches create at their partitions'
// workers.
func createdAll(parts []Partition, batches [][]fedrpc.Request) []Partition {
	var created []Partition
	for i, p := range parts {
		for _, id := range createdIDs(batches[i]) {
			created = append(created, Partition{Addr: p.Addr, DataID: id})
		}
	}
	return created
}
