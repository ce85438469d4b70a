package fedrpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"exdra/internal/matrix"
	"exdra/internal/obs"
)

func TestNamespaceIDRoundTrip(t *testing.T) {
	cases := []struct{ ns, seq int64 }{
		{0, 1}, {0, 1 << 30}, {1, 1}, {7, 42}, {MaxNamespace, 1}, {MaxNamespace, (1 << NamespaceShift) - 1},
	}
	for _, tc := range cases {
		id := MakeID(tc.ns, tc.seq)
		if id < 0 {
			t.Fatalf("MakeID(%d, %d) = %d: sign bit set", tc.ns, tc.seq, id)
		}
		if got := IDNamespace(id); got != tc.ns {
			t.Fatalf("IDNamespace(MakeID(%d, %d)) = %d", tc.ns, tc.seq, got)
		}
	}
	if MakeID(0, 5) != 5 {
		t.Fatal("namespace 0 must be the bare sequence")
	}
	a, b := MakeID(1, 1), MakeID(2, 1)
	if a == b {
		t.Fatal("same sequence in different namespaces must not collide")
	}
}

func TestPoolCheckoutCheckin(t *testing.T) {
	s, _ := startServer(t, Options{})
	p := NewPool(s.Addr(), 2, Options{Metrics: obs.New(), Window: 1})
	defer p.Close()
	ctx := context.Background()

	c1, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("two concurrent checkouts returned the same client")
	}
	if st := p.Stats(); st.Conns != 2 || st.InUse != 2 || st.Idle != 0 {
		t.Fatalf("stats with both out: %+v", st)
	}

	// A third checkout must block until a checkin.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	if _, err := p.Get(short); !errors.Is(err, context.DeadlineExceeded) {
		cancel()
		t.Fatalf("over-size checkout: got %v, want deadline", err)
	}
	cancel()

	p.Put(c1)
	c3, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c1 {
		t.Fatal("checkin did not recycle the idle client")
	}
	p.Put(c2)
	p.Put(c3)
	if st := p.Stats(); st.Conns != 2 || st.InUse != 0 || st.Idle != 2 {
		t.Fatalf("stats after all checkins: %+v", st)
	}

	// Pooled clients carry real connections.
	m := matrix.FromRows([][]float64{{1, 2}})
	cl, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CallOne(Request{Type: Put, ID: 1, Data: MatrixPayload(m)}); err != nil {
		t.Fatal(err)
	}
	p.Put(cl)
}

func TestPoolWaiterHandoff(t *testing.T) {
	s, _ := startServer(t, Options{})
	reg := obs.New()
	p := NewPool(s.Addr(), 1, Options{Metrics: reg, Window: 1})
	defer p.Close()
	ctx := context.Background()

	cl, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Client, 1)
	go func() {
		c, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	// Wait until the second checkout is queued, then check in: the client
	// must be handed straight to the waiter.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.Put(cl)
	c2 := <-got
	if c2 != cl {
		t.Fatal("handoff delivered a different client")
	}
	if st := p.Stats(); st.InUse != 1 || st.Conns != 1 {
		t.Fatalf("stats after handoff: %+v", st)
	}
	p.Put(c2)
	if v := reg.Counter("serve.pool.waits").Value(); v != 1 {
		t.Fatalf("serve.pool.waits = %d, want 1", v)
	}
	if v := reg.Counter("serve.pool.dials").Value(); v != 1 {
		t.Fatalf("serve.pool.dials = %d, want 1", v)
	}
	if v := reg.Gauge("serve.pool.in_use").Value(); v != 0 {
		t.Fatalf("serve.pool.in_use = %d, want 0", v)
	}
}

func TestPoolCloseFailsWaitersAndCheckouts(t *testing.T) {
	s, _ := startServer(t, Options{})
	p := NewPool(s.Addr(), 1, Options{Metrics: obs.New(), Window: 1})
	ctx := context.Background()

	if _, err := p.Get(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Get(ctx)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting < len(errs) {
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("waiter %d: got %v, want ErrPoolClosed", i, err)
		}
	}
	if _, err := p.Get(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close checkout: got %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolDialErrorReleasesSlot(t *testing.T) {
	// A dead address: every dial fails, but the slot must be released each
	// time so subsequent checkouts fail fast instead of deadlocking.
	p := NewPool("127.0.0.1:1", 1, Options{DialTimeout: 200 * time.Millisecond, Metrics: obs.New()})
	defer p.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Get(ctx); err == nil {
			t.Fatal("dial to dead address succeeded")
		}
	}
	if st := p.Stats(); st.Conns != 0 || st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("stats after failed dials: %+v", st)
	}
}

func TestServerMaxConnsRejectsWithBackoff(t *testing.T) {
	reg := obs.New()
	h := newEchoHandler()
	s, err := Serve("127.0.0.1:0", h, Options{MaxConns: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.CallOne(Request{Type: Put, ID: 1, Data: MatrixPayload(matrix.FromRows([][]float64{{1}}))}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("worker.conns").Value(); v != 1 {
		t.Fatalf("worker.conns = %d, want 1", v)
	}

	// A second connection is over the cap: the server parks then drops it
	// without a handshake, so the dial fails instead of hanging.
	if c2, err := Dial(s.Addr(), Options{DialTimeout: 2 * time.Second}); err == nil {
		c2.Close()
		t.Fatal("over-limit connection completed a handshake")
	}
	if v := reg.Counter("worker.conn_rejects").Value(); v == 0 {
		t.Fatal("worker.conn_rejects not incremented")
	}

	// Freeing the slot lets the next connection in.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(s.Addr(), Options{IOTimeout: 2 * time.Second})
		if err == nil {
			_, err = c3.CallOne(Request{Type: Get, ID: 1})
			c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
