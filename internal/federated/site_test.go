package federated

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// TestVerdictTable enumerates every (outcome class × retry-safe × recover)
// cell of verdict. It is the table DESIGN.md §3.5 prints: change one, change
// the other.
func TestVerdictTable(t *testing.T) {
	// Columns: (retrySafe, recover) = (no, no), (no, yes), (yes, no), (yes, yes).
	table := []struct {
		name  string
		class outcome
		want  [4]action
	}{
		{"ok", outOK, [4]action{actDone, actDone, actDone, actDone}},
		{"dial/transport", outTransport, [4]action{actFatal, actFatal, actRetry, actRetry}},
		{"deadline, local or remote", outDeadline, [4]action{actFatal, actFatal, actFatal, actFatal}},
		{"caller cancelled", outCancelled, [4]action{actFatal, actFatal, actFatal, actFatal}},
		{"breaker open", outBreakerOpen, [4]action{actFatal, actFatal, actFatal, actFatal}},
		{"restarted, all-OK reply", outRestartedOK, [4]action{actDone, actDone, actDone, actDone}},
		{"restarted, partial reply", outRestartedPartial, [4]action{actFatal, actFatal, actFatal, actReplay}},
		{"replay rejected", outReplayRejected, [4]action{actFatal, actFatal, actFatal, actFatal}},
		{"unrecoverable", outUnrecoverable, [4]action{actFatal, actFatal, actFatal, actFatal}},
		{"closed", outClosed, [4]action{actFatal, actFatal, actFatal, actFatal}},
	}
	if len(table) != int(outClosed)+1 {
		t.Fatalf("table has %d rows for %d outcome classes", len(table), int(outClosed)+1)
	}
	for i, row := range table {
		if int(row.class) != i {
			t.Fatalf("row %d (%s) is class %d: keep the table in declaration order", i, row.name, row.class)
		}
		for col, want := range row.want {
			retrySafe, recover := col >= 2, col%2 == 1
			if got := verdict(row.class, retrySafe, recover); got != want {
				t.Errorf("verdict(%s, retrySafe=%v, recover=%v) = %d, want %d", row.name, retrySafe, recover, got, want)
			}
		}
	}
}

// newSiteFleet builds a fleet with an isolated registry and one site, for
// tests that drive the site's state machine through settle — no network.
func newSiteFleet(t *testing.T, p Policy) (*Fleet, *site) {
	t.Helper()
	p.ProbeInterval = time.Hour // the prober stays out of the way
	f := NewFleet(fedrpc.Options{Metrics: obs.New()}, 1, p)
	t.Cleanup(f.Close)
	st, err := f.site("w1:1")
	if err != nil {
		t.Fatal(err)
	}
	return f, st
}

// TestBreakerTripsAfterThreshold pins the closed→open transition: exactly
// BreakerThreshold consecutive failures trip the breaker; an answered call
// before the threshold resets the count.
func TestBreakerTripsAfterThreshold(t *testing.T) {
	f, st := newSiteFleet(t, Policy{BreakerThreshold: 3})
	f.settle(st, outTransport, 0, false)
	f.settle(st, outDeadline, 0, false)
	f.settle(st, outOK, 7, false) // resets the consecutive count
	f.settle(st, outTransport, 0, false)
	f.settle(st, outTransport, 0, true) // a failed probe counts like a failed call
	if got := f.BreakerState("w1:1"); got != "closed" {
		t.Fatalf("state after 2 consecutive failures = %q, want closed", got)
	}
	if !st.allow() {
		t.Fatal("closed breaker rejected a call")
	}
	f.settle(st, outTransport, 0, false)
	if got := f.BreakerState("w1:1"); got != "open" {
		t.Fatalf("state after 3 consecutive failures = %q, want open", got)
	}
	if st.allow() {
		t.Fatal("open breaker admitted a call")
	}
	f.settle(st, outBreakerOpen, 0, false)
	for name, want := range map[string]int64{
		"fed.breaker.opens": 1, "fed.breaker.rejections": 1, "fed.transport_errors": 4, "fed.deadline_exceeded": 1,
	} {
		if got := f.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := f.reg.Gauge("fed.breaker.open_count").Value(); got != 1 {
		t.Fatalf("fed.breaker.open_count = %d, want 1", got)
	}
}

// TestBreakerProbeHalfOpenAndTrial pins the recovery path: an answered
// probe half-opens but never closes, exactly one trial call is admitted, and
// its outcome decides between closed and open.
func TestBreakerProbeHalfOpenAndTrial(t *testing.T) {
	f, st := newSiteFleet(t, Policy{BreakerThreshold: 1})
	const addr = "w1:1"
	f.settle(st, outTransport, 0, false)
	if got := f.BreakerState(addr); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	f.settle(st, outOK, 7, true)
	if got := f.BreakerState(addr); got != "half-open" {
		t.Fatalf("state after an answered probe = %q, want half-open", got)
	}
	if got := f.reg.Gauge("fed.breaker.open_count").Value(); got != 0 {
		t.Fatalf("fed.breaker.open_count = %d, want 0 after half-open", got)
	}
	f.settle(st, outOK, 7, true)
	if got := f.BreakerState(addr); got != "half-open" {
		t.Fatalf("a second probe moved a half-open site to %q", got)
	}
	// Exactly one trial is admitted; a concurrent call keeps failing fast.
	if !st.allow() {
		t.Fatal("half-open breaker rejected the trial")
	}
	if st.allow() {
		t.Fatal("second call admitted during the trial")
	}
	// A trial that ends without news of the worker hands the trial on.
	f.settle(st, outUnrecoverable, 0, false)
	if got := f.BreakerState(addr); got != "half-open" {
		t.Fatalf("state after an unrecoverable trial = %q, want half-open", got)
	}
	if !st.allow() {
		t.Fatal("the trial was not handed on")
	}
	// Trial failure re-opens immediately.
	f.settle(st, outDeadline, 0, false)
	if got := f.BreakerState(addr); got != "open" {
		t.Fatalf("state after failed trial = %q, want open", got)
	}
	// Probe again; this time the trial is answered and the breaker closes.
	f.settle(st, outOK, 7, true)
	if !st.allow() {
		t.Fatal("half-open breaker rejected the trial")
	}
	f.settle(st, outOK, 7, false)
	if got := f.BreakerState(addr); got != "closed" {
		t.Fatalf("state after an answered trial = %q, want closed", got)
	}
	if !st.allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestBreakerDisabledIsTransparent pins the zero-policy behavior: no state
// is tracked beyond the epoch, and no goroutine runs.
func TestBreakerDisabledIsTransparent(t *testing.T) {
	f := NewFleet(fedrpc.Options{Metrics: obs.New()}, 1, Policy{})
	defer f.Close()
	st, err := f.site("w1:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.settle(st, outTransport, 0, false)
	}
	if got := f.BreakerState("w1:1"); got != "closed" {
		t.Fatalf("disabled breaker state = %q, want closed", got)
	}
	if st.fails != 0 {
		t.Fatalf("disabled breaker counted %d failures", st.fails)
	}
	f.settle(st, outOK, 7, false)
	if st.currentEpoch() != 7 {
		t.Fatal("the zero policy still tracks the instance epoch")
	}
}

// TestSiteCountsARestartOnce: first contact records the epoch, the same
// epoch is quiet, and a change is one restart however many sessions' replies
// carry it.
func TestSiteCountsARestartOnce(t *testing.T) {
	f, st := newSiteFleet(t, Policy{})
	restarts := f.reg.Counter("fed.restarts_detected")
	f.settle(st, outOK, 0, false) // unstamped reply
	f.settle(st, outOK, 7, false) // first contact
	f.settle(st, outOK, 7, true)
	if restarts.Value() != 0 || st.currentEpoch() != 7 {
		t.Fatalf("epoch %d, %d restarts after first contact; want 7, 0", st.currentEpoch(), restarts.Value())
	}
	f.settle(st, outRestartedPartial, 8, false) // session A's reply
	f.settle(st, outRestartedPartial, 8, false) // session B's reply, sent under 7 as well
	f.settle(st, outRestartedOK, 8, false)
	f.settle(st, outTransport, 0, false) // no reply, no epoch
	if restarts.Value() != 1 || st.currentEpoch() != 8 {
		t.Fatalf("epoch %d, %d restarts; want 8 and exactly 1", st.currentEpoch(), restarts.Value())
	}
}

// deadListener accepts connections and drops them before the handshake,
// counting the dials it saw.
func deadListener(t *testing.T) (addr string, dials *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials = new(atomic.Int64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()
	return ln.Addr().String(), dials
}

// TestProbeIsSingleAttempt: a probe of a dead worker is one dial, whatever
// the sessions' retry policy, and is not a retry.
func TestProbeIsSingleAttempt(t *testing.T) {
	addr, dials := deadListener(t)
	f := NewFleet(fedrpc.Options{Metrics: obs.New()}, 1, Policy{Attempts: 4, Backoff: time.Millisecond, ProbeInterval: time.Hour})
	defer f.Close()
	if err := f.Ping(addr); err == nil {
		t.Fatal("probe of a worker that drops every connection succeeded")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("one probe dialed %d times, want 1", n)
	}
	for name, want := range map[string]int64{"fed.retries": 0, "fed.probes": 1, "fed.probe_failures": 1} {
		if got := f.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFailedProbeLeavesHalfOpenToTheTrial: while the half-open trial call is
// in flight, a probe that fails must not re-open the site under it.
func TestFailedProbeLeavesHalfOpenToTheTrial(t *testing.T) {
	addr, _ := deadListener(t)
	f := NewFleet(fedrpc.Options{Metrics: obs.New()}, 1, Policy{BreakerThreshold: 1, ProbeInterval: time.Hour})
	defer f.Close()
	st, err := f.site(addr)
	if err != nil {
		t.Fatal(err)
	}
	f.settle(st, outTransport, 0, false) // open
	f.settle(st, outOK, 7, true)         // half-open
	if !st.allow() {
		t.Fatal("half-open site rejected the trial")
	}
	if err := f.Ping(addr); err == nil {
		t.Fatal("probe of a worker that drops every connection succeeded")
	}
	if got := f.BreakerState(addr); got != "half-open" {
		t.Fatalf("a failed probe moved the half-open site to %q", got)
	}
	if st.allow() {
		t.Fatal("the failed probe released the trial that is still in flight")
	}
	if got := f.reg.Counter("fed.breaker.opens").Value(); got != 1 {
		t.Fatalf("fed.breaker.opens = %d, want 1 (the failed probe re-opened the site)", got)
	}
}

// TestBreakerTripMidRetryKeepsRootCause: when the breaker trips between two
// attempts of one call, the error is the load-shed and still matches what
// tripped it.
func TestBreakerTripMidRetryKeepsRootCause(t *testing.T) {
	c := NewTestSession(t, fedrpc.Options{Metrics: obs.New(), DialTimeout: time.Second},
		Policy{Attempts: 3, Backoff: time.Millisecond, BreakerThreshold: 1, ProbeInterval: time.Hour})
	defer c.Close()
	// 127.0.0.1:1 refuses: attempt 1 fails to dial and trips the breaker,
	// attempt 2 is rejected by it.
	_, err := c.call("127.0.0.1:1", []fedrpc.Request{{Type: fedrpc.Get, ID: 1}})
	if !errors.Is(err, ErrWorkerUnavailable) {
		t.Fatalf("error = %v, want ErrWorkerUnavailable", err)
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("the dial failure behind the open breaker is not matchable: %v", err)
	}
	if got := c.reg.Counter("fed.retries").Value(); got != 1 {
		t.Fatalf("fed.retries = %d, want 1", got)
	}
}
