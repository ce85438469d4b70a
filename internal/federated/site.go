package federated

// The failure model in one place (DESIGN.md §3.5). Every attempt a session
// makes to reach a worker ends in exactly one outcome class; verdict maps the
// class to what the retry loop does next, and Fleet.settle folds it into the
// fed.* counters and the worker's site: its connection pool and the last
// instance epoch any reply carried. A change of epoch is a restart, counted
// once however many sessions see it.
//
// There is no circuit breaker and no health prober. A dead worker costs a
// retry-safe batch Policy.Attempts dials with backoff, all inside the call's
// budget (Policy.CallTimeout); without a budget, fedrpc's read deadline
// (fedrpc.DefaultIOTimeout) bounds an exchange with a peer that stopped
// answering. A restart is found by the next reply from the new process, and
// the session's creation log replays what the batches after it need.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"exdra/internal/fedrpc"
)

// outcome classifies how one attempt ended.
type outcome int

const (
	outOK               outcome = iota // answered under the epoch it was sent under
	outTransport                       // dial or exchange failed; whether the batch ran is unknown
	outDeadline                        // the budget expired, locally or as the worker's typed reply
	outCancelled                       // the caller's context was cancelled
	outRestartedOK                     // answered by a new process, every response OK: nothing lost was read
	outRestartedPartial                // answered by a new process with failures: it read lost state
	outReplayRejected                  // the worker refused a replayed creation
	outUnrecoverable                   // needs lost state this session cannot rebuild; nothing was sent
	outClosed                          // the coordinator or fleet was closed
)

// action is what the retry loop does with an outcome.
type action int

const (
	actDone   action = iota // return the responses
	actRetry                // back off and re-issue, consuming an attempt
	actReplay               // rebuild lost state and re-issue; free, but bounded by maxRecoveries
	actFatal                // surface the error now
)

// verdict is the whole retry/replay/fail-fast decision (the table in
// DESIGN.md §3.5). retrySafe is RetryableBatch of the request list.
func verdict(class outcome, retrySafe bool) action {
	switch class {
	case outOK, outRestartedOK:
		return actDone
	case outTransport:
		if retrySafe {
			return actRetry
		}
	case outRestartedPartial:
		if retrySafe {
			return actReplay
		}
	}
	return actFatal
}

// site is everything the fleet knows about one worker address.
type site struct {
	pool *fedrpc.Pool

	mu    sync.Mutex
	epoch uint64 // last instance epoch a reply carried (0 = never heard from); guarded by mu
}

// currentEpoch returns the worker's instance epoch as last observed.
func (st *site) currentEpoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// call runs one batch on a connection checked out of the pool for the
// duration of the exchange — the whole reason sessions sharing a fleet do not
// serialize behind one client — and classifies how the exchange ended. The
// checkout is returned on every path; a broken client goes back too (its
// next user transparently redials).
func (st *site) call(ctx context.Context, reqs []fedrpc.Request) ([]fedrpc.Response, outcome, error) {
	cl, err := st.pool.Get(ctx)
	if err != nil {
		return nil, failureClass(ctx, err), err // dial failure, or checkout starved past the budget
	}
	defer st.pool.Put(cl)
	resps, err := cl.CallCtx(ctx, reqs...)
	if err != nil {
		return nil, failureClass(ctx, err), err
	}
	for i, r := range resps {
		if r.Code == fedrpc.CodeDeadlineExceeded {
			// The worker (or the server's reply backstop) abandoned the
			// batch at budget expiry and said so with the typed code.
			return nil, outDeadline, fmt.Errorf("federated: %s %s: %w: %s",
				st.pool.Addr(), reqs[i].Type, fedrpc.ErrDeadlineExceeded, r.Err)
		}
	}
	return resps, outOK, nil
}

// failureClass classifies an exchange that produced no reply.
func failureClass(ctx context.Context, err error) outcome {
	switch {
	case errors.Is(err, fedrpc.ErrPoolClosed), errors.Is(err, fedrpc.ErrClosed):
		return outClosed
	case errors.Is(err, fedrpc.ErrDeadlineExceeded), errors.Is(ctx.Err(), context.DeadlineExceeded):
		return outDeadline
	case ctx.Err() != nil:
		return outCancelled
	}
	return outTransport
}

// settle is the one step that folds an attempt's outcome into the site and
// the fed.* counters; epoch is the reply's instance epoch (0 without a
// reply).
func (f *Fleet) settle(st *site, class outcome, epoch uint64) {
	switch class {
	case outTransport:
		f.reg.Counter("fed.transport_errors").Inc()
	case outDeadline:
		f.reg.Counter("fed.deadline_exceeded").Inc()
	}
	if epoch == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if epoch != st.epoch {
		if st.epoch != 0 {
			f.reg.Counter("fed.restarts_detected").Inc()
		}
		st.epoch = epoch
	}
}
