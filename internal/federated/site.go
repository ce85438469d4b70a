package federated

// The failure model in one place (DESIGN.md §3.5). Every attempt to reach a
// worker — a session's batch or the prober's ping — ends in exactly one
// outcome class; verdict maps the class to what the retry loop does next,
// and Fleet.settle folds it into the worker's site and the fed.* counters.
//
// Site state (one per worker address, shared by all sessions):
//
//	closed ──(BreakerThreshold consecutive transport/deadline failures)──> open
//	open ──(the fleet prober's HEALTH ping is answered)──> half-open
//	half-open ──(the one admitted trial call is answered)──> closed
//	half-open ──(the trial call fails)──> open
//
// plus the last instance epoch any reply carried; a change is a restart,
// counted once however many sessions see it.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"exdra/internal/fedrpc"
)

// ErrWorkerUnavailable marks calls rejected without touching the wire
// because the worker's circuit breaker is open (or its half-open trial is
// taken): recent consecutive failures reached Policy.BreakerThreshold and
// the prober has not reached the worker since. Callers can errors.Is for it
// to distinguish load-shedding from a fresh failure.
var ErrWorkerUnavailable = errors.New("federated: worker unavailable (circuit breaker open)")

// outcome classifies how one attempt ended.
type outcome int

const (
	outOK               outcome = iota // answered under the epoch it was sent under
	outTransport                       // dial or exchange failed; whether the batch ran is unknown
	outDeadline                        // the budget expired, locally or as the worker's typed reply
	outCancelled                       // the caller's context was cancelled
	outBreakerOpen                     // rejected before the wire
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
// DESIGN.md §3.5). retrySafe is RetryableBatch of the request list; recover
// is Policy.Recover.
func verdict(class outcome, retrySafe, recover bool) action {
	switch class {
	case outOK, outRestartedOK:
		return actDone
	case outTransport:
		if retrySafe {
			return actRetry
		}
	case outRestartedPartial:
		if recover && retrySafe {
			return actReplay
		}
	}
	return actFatal
}

// Site breaker states.
const (
	siteClosed = iota
	siteOpen
	siteHalfOpen
)

// site is everything the fleet knows about one worker address.
type site struct {
	pool *fedrpc.Pool

	mu    sync.Mutex
	state int    // site* constant; guarded by mu
	fails int    // consecutive failures while closed; guarded by mu
	trial bool   // the half-open trial call is in flight; guarded by mu
	epoch uint64 // last instance epoch a reply carried (0 = never heard from); guarded by mu
}

// currentEpoch returns the worker's instance epoch as last observed.
func (st *site) currentEpoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// allow gates one session call on the breaker: closed passes, open fails
// fast, half-open admits exactly one trial.
func (st *site) allow() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch st.state {
	case siteClosed:
		return true
	case siteOpen:
		return false
	}
	if st.trial {
		return false
	}
	st.trial = true
	return true
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
// reply), probe marks the prober's pings. A probe never closes the breaker —
// HEALTH exercises none of the data path — and a failed probe leaves a
// half-open site to its trial.
func (f *Fleet) settle(st *site, class outcome, epoch uint64, probe bool) {
	answered, failed := false, false
	switch class {
	case outOK, outRestartedOK, outRestartedPartial, outReplayRejected:
		answered = true
	case outTransport:
		f.reg.Counter("fed.transport_errors").Inc()
		failed = true
	case outDeadline:
		f.reg.Counter("fed.deadline_exceeded").Inc()
		failed = true
	case outBreakerOpen:
		f.reg.Counter("fed.breaker.rejections").Inc()
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if epoch != 0 && epoch != st.epoch {
		if st.epoch != 0 {
			f.reg.Counter("fed.restarts_detected").Inc()
		}
		st.epoch = epoch
	}
	if f.policy.BreakerThreshold <= 0 {
		return
	}
	switch {
	case failed:
		trip := st.state == siteHalfOpen && !probe // the trial failed
		if st.state == siteClosed {
			st.fails++
			trip = st.fails >= f.policy.BreakerThreshold
		}
		if trip {
			st.state, st.fails, st.trial = siteOpen, 0, false
			f.reg.Counter("fed.breaker.opens").Inc()
			f.reg.Gauge("fed.breaker.open_count").Add(1)
		}
	case !answered:
		// Cancelled, unrecoverable, closed: nothing learned about the worker,
		// but if this call held the trial, the next one takes over.
		if !probe {
			st.trial = false
		}
	case probe:
		if st.state == siteOpen {
			st.state = siteHalfOpen
			f.reg.Counter("fed.breaker.half_opens").Inc()
			f.reg.Gauge("fed.breaker.open_count").Add(-1)
		}
	default:
		if st.state != siteClosed {
			f.reg.Counter("fed.breaker.closes").Inc()
			if st.state == siteOpen {
				f.reg.Gauge("fed.breaker.open_count").Add(-1)
			}
		}
		st.state, st.fails, st.trial = siteClosed, 0, false
	}
}

// BreakerState reports the named worker's breaker state ("closed", "open",
// "half-open") — closed when breaking is disabled or the worker is unknown.
func (f *Fleet) BreakerState(addr string) string {
	f.mu.Lock()
	st := f.sites[addr]
	f.mu.Unlock()
	if st == nil {
		return "closed"
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return [...]string{siteClosed: "closed", siteOpen: "open", siteHalfOpen: "half-open"}[st.state]
}
