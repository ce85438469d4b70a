package fedrpc

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// deadlineProbeHandler records whether the server-reconstructed context of
// each batch carried a deadline, and how far away it was.
type deadlineProbeHandler struct {
	mu      sync.Mutex
	budgets []time.Duration // -1 = no deadline on the context
}

func (h *deadlineProbeHandler) Handle(reqs []Request) []Response {
	return h.HandleContext(context.Background(), reqs)
}

func (h *deadlineProbeHandler) HandleContext(ctx context.Context, reqs []Request) []Response {
	budget := time.Duration(-1)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	h.mu.Lock()
	h.budgets = append(h.budgets, budget)
	h.mu.Unlock()
	out := make([]Response, len(reqs))
	for i := range out {
		out[i] = Response{OK: true}
	}
	return out
}

// stallHandler blocks each batch until its context dies or release is
// closed, so tests can park a call mid-exchange (to queue a second one
// behind it) or force the server's deadline backstop to fire.
type stallHandler struct {
	release chan struct{}
}

func (h *stallHandler) Handle(reqs []Request) []Response {
	return h.HandleContext(context.Background(), reqs)
}

func (h *stallHandler) HandleContext(ctx context.Context, reqs []Request) []Response {
	select {
	case <-ctx.Done():
	case <-h.release:
	}
	out := make([]Response, len(reqs))
	for i := range out {
		out[i] = Response{OK: true}
	}
	return out
}

// TestDeadlineTravelsToHandler pins the tentpole's wire half: a caller
// deadline becomes a relative budget in the request envelope, and the
// server reconstructs a context whose deadline is at most that budget
// away. A call without a deadline must reach the handler with an unbounded
// context — a zero field means "no deadline".
func TestDeadlineTravelsToHandler(t *testing.T) {
	h := &deadlineProbeHandler{}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const budget = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := c.CallCtx(ctx, Request{Type: Health}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallCtx(context.Background(), Request{Type: Health}); err != nil {
		t.Fatal(err)
	}

	h.mu.Lock()
	budgets := append([]time.Duration(nil), h.budgets...)
	h.mu.Unlock()
	if len(budgets) != 2 {
		t.Fatalf("handler saw %d batches, want 2", len(budgets))
	}
	if budgets[0] <= 0 || budgets[0] > budget {
		t.Fatalf("deadlined call reached handler with budget %v, want (0, %v]", budgets[0], budget)
	}
	if budgets[1] != -1 {
		t.Fatalf("deadline-free call reached handler with a deadline (%v away)", budgets[1])
	}
}

// TestServerBackstopRepliesTypedDeadline pins the server half of "stalled
// worker, no hang": when the handler blows the wire budget, the server
// abandons it and replies with CodeDeadlineExceeded inside the client's
// grace window — the exchange itself succeeds, no transport teardown.
func TestServerBackstopRepliesTypedDeadline(t *testing.T) {
	h := &stallHandler{release: make(chan struct{})}
	defer close(h.release)
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const budget = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	resps, err := c.CallCtx(ctx, Request{Type: Health}, Request{Type: Health})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("backstop reply should arrive as a normal exchange, got %v", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("typed reply took %v, want within ~2x the %v budget", elapsed, budget)
	}
	for i, r := range resps {
		if r.OK || r.Code != CodeDeadlineExceeded {
			t.Fatalf("response %d = {OK:%v Code:%d}, want typed DEADLINE_EXCEEDED", i, r.OK, r.Code)
		}
	}
	// The transport survived: the connection was not torn down.
	if c.Broken() {
		t.Fatal("typed deadline reply must not break the transport")
	}
}

// TestExpiredBudgetFailsBeforeWire: a context that is already past its
// deadline fails with the typed error without consuming the exchange.
func TestExpiredBudgetFailsBeforeWire(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = c.CallCtx(ctx, Request{Type: Health})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired budget error = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
	}
	// The client is still usable for the next call.
	if _, err := c.CallCtx(context.Background(), Request{Type: Health}); err != nil {
		t.Fatalf("client unusable after an expired-budget rejection: %v", err)
	}
}

// TestQueuedCancelReturnsCtxErr is the satellite regression: cancelling a
// call that is still queued behind another exchange must return ctx.Err()
// itself — not a transport error — and must not tear down the connection
// the in-flight exchange is using. Run under -race, this also pins the
// exchange-semaphore handoff.
func TestQueuedCancelReturnsCtxErr(t *testing.T) {
	h := &stallHandler{release: make(chan struct{})}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Park the first call mid-exchange: it holds the serializer until the
	// handler is released.
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.CallCtx(context.Background(), Request{Type: Health})
		firstDone <- err
	}()
	// Give the first call time to win the exchange and reach the server.
	time.Sleep(50 * time.Millisecond)

	// The second call queues; cancel it while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = c.CallCtx(ctx, Request{Type: Health})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel error = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued cancel misclassified as a deadline blowout: %v", err)
	}

	// The in-flight exchange was untouched: release the handler and the
	// first call completes normally on the same connection.
	close(h.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("in-flight call broken by a queued cancel: %v", err)
	}
	if c.Broken() {
		t.Fatal("queued cancel tore down the transport")
	}
	if _, err := c.CallCtx(context.Background(), Request{Type: Health}); err != nil {
		t.Fatalf("client unusable after queued cancel: %v", err)
	}
}

// TestMidExchangeCancelInterruptsPromptly: cancelling the context of the
// exchange that is actually on the wire interrupts the blocked I/O well
// before the transport's coarse I/O timeout, and classifies the error as
// the caller's cancellation.
func TestMidExchangeCancelInterruptsPromptly(t *testing.T) {
	h := &stallHandler{release: make(chan struct{})}
	defer close(h.release)
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.CallCtx(ctx, Request{Type: Health})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-exchange cancel error = %v, want to wrap context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancel took %v to interrupt the exchange", d)
	}
}

// TestBudgetedRedialHonorsDeadline is the regression test for the redial
// that ignored its caller's budget: a peer that shakes hands on the first
// connection and goes mute on the second used to hold a 100 ms-budget call
// for the full DialTimeout. The budget now bounds the redial too.
func TestBudgetedRedialHonorsDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				_ = ackPrelude(conn)
				conn.Close() // break the client: its next call must redial
				continue
			}
			go func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }(conn) // never acks
		}
	}()
	c, err := Dial(ln.Addr().String(), Options{DialTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(Request{Type: Health}); err == nil {
		t.Fatal("call on the closed first connection succeeded")
	}
	if !c.Broken() {
		t.Fatal("client not broken after its connection was closed")
	}

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, err = c.CallCtx(ctx, Request{Type: Health})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("budgeted redial against a mute peer = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("budgeted redial took %v, want within ~2x the %v budget", elapsed, budget)
	}
}
