package fedrpc

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/obs"
)

// TestPipelineOutOfOrderReplies pins the tentpole behavior: two calls in
// flight on ONE connection, where the first to be sent is the last to be
// answered. The fast call must complete while the slow one is still parked
// in its handler — impossible under lock-step — and both must succeed.
func TestPipelineOutOfOrderReplies(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	h := HandlerFunc(func(reqs []Request) []Response {
		out := make([]Response, len(reqs))
		for i, r := range reqs {
			if r.Type == Get && r.ID == 1 {
				entered <- struct{}{}
				<-block // park the slow call until released
			}
			out[i] = Response{OK: true}
		}
		return out
	})
	s, err := Serve("127.0.0.1:0", h, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{Metrics: obs.New(), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.WindowCap(); got != 4 {
		t.Fatalf("WindowCap = %d, want the configured window 4 from dial", got)
	}

	slow := make(chan error, 1)
	go func() {
		_, err := c.Call(Request{Type: Get, ID: 1})
		slow <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("slow call never reached the handler")
	}
	// The slow call is parked server-side. A second call on the same
	// client must go out on the same connection and come back first.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(Request{Type: Get, ID: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fast call failed while slow call in flight: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast call did not overtake the parked slow call: pipelining is not overlapping exchanges")
	}
	close(block)
	if err := <-slow; err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	// Both calls shared the client's single connection: pipelining must
	// not fall back to dialing a second transport.
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	if conns != 1 {
		t.Fatalf("server saw %d connections, want 1 (calls must share the pipelined conn)", conns)
	}
	if c.Broken() {
		t.Fatal("client broken after successful pipelined calls")
	}
}

// rawPeer is a hand-rolled worker that completes the handshake and then
// answers every request batch with one OK reply per tag replyTags returns
// for the batch's call tag — so a test can echo a wrong tag, no tag, or the
// same tag twice.
func rawPeer(t *testing.T, replyTags func(tag uint64) []uint64) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := ackPrelude(conn); err != nil {
					return
				}
				rd := newFrameReader[wireEnvelope](bufio.NewReader(conn), serverInflightWindow)
				bw := bufio.NewWriter(conn)
				enc := gob.NewEncoder(bw)
				for {
					reqs, _, tag, err := readBatch(rd)
					if err != nil {
						return
					}
					resps := make([]Response, len(reqs))
					for i := range resps {
						resps[i] = Response{OK: true}
					}
					for _, rt := range replyTags(tag) {
						fw := &frameWriter{bw: bw, w: conn, enc: enc, tag: rt, yield: func() error { return nil }}
						if err := writeReply(fw, resps, 0); err != nil {
							return
						}
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestBadReplyTagTearsDownSession: a reply bearing a tag that matches no
// in-flight call — a wrong one, or none at all — is a protocol desync
// (duplicate, forged, or corrupt); the session must fail loudly, not
// mis-deliver the reply.
func TestBadReplyTagTearsDownSession(t *testing.T) {
	for name, replyTags := range map[string]func(uint64) []uint64{
		"unknown": func(tag uint64) []uint64 { return []uint64{tag + 9000} },
		"zero":    func(uint64) []uint64 { return []uint64{0} },
	} {
		t.Run(name, func(t *testing.T) {
			ln := rawPeer(t, replyTags)
			c, err := Dial(ln.Addr().String(), Options{Metrics: obs.New(), Window: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Call(Request{Type: Clear})
			if err == nil {
				t.Fatal("reply with a bad tag was accepted")
			}
			if !strings.Contains(err.Error(), "unknown call tag") {
				t.Fatalf("err = %v, want the unknown-tag teardown", err)
			}
			if !c.Broken() {
				t.Fatal("client not broken after bad-tag reply")
			}
		})
	}
}

// TestZeroTagRequestTearsDownConnection is the server half: a request
// batch without a call tag cannot be answered, so the server closes the
// connection instead of executing it.
func TestZeroTagRequestTearsDownConnection(t *testing.T) {
	s, h := startServer(t, Options{Metrics: obs.New()})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := negotiate(conn); err != nil {
		t.Fatal(err)
	}
	put := Request{Type: Put, ID: 1, Data: ScalarPayload(1)}
	if _, err := conn.Write(encodeBatch(t, []Request{put}, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a zero-tag request = %d bytes, %v; want the connection closed", n, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.store) != 0 {
		t.Fatal("server executed an untagged batch")
	}
}

// TestDuplicateTagReplyTearsDownSession: the first copy of a duplicated
// reply completes its call normally; the stale second copy must kill the
// session the moment it is read (its tag no longer matches anything)
// rather than complete some later call with stale data.
func TestDuplicateTagReplyTearsDownSession(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	ln := rawPeer(t, func(tag uint64) []uint64 {
		if first.Swap(false) {
			return []uint64{tag, tag} // the duplicate: same tag, sent again unprompted
		}
		return []uint64{tag}
	})
	c, err := Dial(ln.Addr().String(), Options{Metrics: obs.New(), Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(Request{Type: Clear}); err != nil {
		t.Fatalf("first call (first copy of the reply) failed: %v", err)
	}
	// The duplicate is sitting unread in the buffer; the next call's read
	// encounters it first and must refuse to proceed.
	_, err = c.Call(Request{Type: Clear})
	if err == nil {
		t.Fatal("call after duplicated reply succeeded — stale reply was mis-delivered")
	}
	if !strings.Contains(err.Error(), "unknown call tag") {
		t.Fatalf("err = %v, want the unknown-tag teardown", err)
	}
	if !c.Broken() {
		t.Fatal("client not broken after duplicate reply")
	}
}

// TestFailedExchangeBytesMatchAtomics is the regression test for the
// accounting bug where a failed exchange recorded its span before the byte
// deltas were assigned: the rpc.client.bytes_out counter (fed by span
// deltas) silently diverged from the atomic BytesSent total (fed by the
// counting writer) on every transport failure. A mid-write truncation
// leaves real bytes on the wire and then fails the call; counter and
// atomic must still agree, and the failed span must carry its bytes.
func TestFailedExchangeBytesMatchAtomics(t *testing.T) {
	reg := obs.New()
	s, _ := startServer(t, Options{})
	faults := netem.NewFaults(netem.FaultConfig{Seed: 5, Truncations: 1, TruncateAfterBytes: 4096})
	c, err := Dial(s.Addr(), Options{Netem: netem.Config{Faults: faults}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(Request{Type: Clear}); err != nil { // a clean exchange first
		t.Fatal(err)
	}
	payload := MatrixPayload(matrix.Fill(128, 128, 1)) // ~128 KB: crosses the cut mid-slab
	_, err = c.Call(Request{Type: Put, ID: 1, Data: payload})
	if err == nil {
		t.Fatal("injected truncation did not surface")
	}
	if faults.Stats().Truncations != 1 {
		t.Fatalf("faults injected %d truncations, want 1", faults.Stats().Truncations)
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["rpc.client.bytes_out"], c.BytesSent(); got != want {
		t.Fatalf("rpc.client.bytes_out = %d, atomic BytesSent = %d: failed exchanges dropped their byte deltas", got, want)
	}
	if got, want := snap.Counters["rpc.client.bytes_in"], c.BytesReceived(); got != want {
		t.Fatalf("rpc.client.bytes_in = %d, atomic BytesReceived = %d", got, want)
	}
	var failed *obs.Span
	for _, sp := range reg.Spans() {
		if sp.Err != "" {
			sp := sp
			failed = &sp
		}
	}
	if failed == nil {
		t.Fatal("no errored span recorded")
	}
	if failed.BytesOut <= 0 {
		t.Fatalf("failed span BytesOut = %d, want the bytes written before the cut", failed.BytesOut)
	}
}

// TestCallOneTypedDeadlineReply is the regression test for the typed-error
// flattening bug: a worker-reported CodeDeadlineExceeded response must
// surface as ErrDeadlineExceeded from CallOne — the same verdict a local
// budget expiry gets — not as an untyped string error that breaker/retry
// logic then misclassifies as retryable.
func TestCallOneTypedDeadlineReply(t *testing.T) {
	h := HandlerFunc(func(reqs []Request) []Response {
		out := make([]Response, len(reqs))
		for i := range out {
			out[i] = Response{Err: "budget spent mid-batch", Code: CodeDeadlineExceeded}
		}
		return out
	})
	s, err := Serve("127.0.0.1:0", h, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CallOne(Request{Type: Get, ID: 1})
	if err == nil {
		t.Fatal("failed response did not surface as an error")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("worker-typed deadline reply = %v, want errors.Is(err, ErrDeadlineExceeded)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("typed reply must also match context.DeadlineExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "budget spent mid-batch") {
		t.Fatalf("worker's message lost from %v", err)
	}
	// A typed reply is an application verdict, not a transport failure:
	// the connection stays usable.
	if c.Broken() {
		t.Fatal("typed deadline reply broke the transport")
	}
}

// TestPipelineDepth8Latency is the acceptance measurement as a test: at an
// emulated 35 ms RTT, a depth-8 burst of small calls must complete in a
// couple of round trips when pipelined (they share bursts on one
// connection) and must beat the same burst on a lock-step client by at
// least 2x (which pays ~1 RTT per call).
func TestPipelineDepth8Latency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive WAN emulation")
	}
	const rtt = 35 * time.Millisecond
	const depth = 8
	wan := netem.Config{RTT: rtt}
	// Shape both directions (netem charges RTT/2 per write burst): requests
	// on the client conn, replies on the server conn — as on a real WAN.
	s, _ := startServer(t, Options{Netem: wan})

	run := func(window int) time.Duration {
		c, err := Dial(s.Addr(), Options{Netem: wan, Window: window, Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Seed the objects in one batched call, then let the netem burst
		// gap elapse so measurement starts clean.
		reqs := make([]Request, depth)
		for i := range reqs {
			reqs[i] = Request{Type: Put, ID: int64(i + 1), Data: ScalarPayload(float64(i))}
		}
		if _, err := c.Call(reqs...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)

		start := time.Now()
		var wg sync.WaitGroup
		var fail atomic.Value
		for i := 0; i < depth; i++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				if _, err := c.CallOne(Request{Type: Get, ID: id}); err != nil {
					fail.Store(err)
				}
			}(int64(i + 1))
		}
		wg.Wait()
		if err := fail.Load(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	pipelined := run(depth)
	lockstep := run(1)
	t.Logf("depth-%d burst at RTT %v: pipelined %v, lock-step %v", depth, rtt, pipelined, lockstep)
	if limit := 7 * rtt / 2; pipelined >= limit {
		t.Fatalf("pipelined depth-%d burst took %v, want < %v (~3.5 RTTs)", depth, pipelined, limit)
	}
	if pipelined >= lockstep/2 {
		t.Fatalf("pipelined %v not at least 2x faster than lock-step %v", pipelined, lockstep)
	}
}

// TestPoolReclaimDoesNotCountCheckout is the regression test for the
// accounting bug where the cancelled-waiter reclaim path counted a
// checkout for a client the caller never received: reclaim must rebalance
// the lease without touching serve.pool.checkouts.
func TestPoolReclaimDoesNotCountCheckout(t *testing.T) {
	reg := obs.New()
	s, _ := startServer(t, Options{})
	p := NewPool(s.Addr(), 1, Options{Metrics: reg})
	defer p.Close()
	cl, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the race deterministically: a Put handed cl to a waiter
	// whose ctx died before it could receive. The lease rode along on the
	// channel; reclaim returns it to the pool.
	w := make(chan *Client, 1)
	w <- cl
	p.reclaim(w)
	if got := reg.Counter("serve.pool.checkouts").Value(); got != 1 {
		t.Fatalf("checkouts = %d after reclaim, want 1 (only the real Get)", got)
	}
	st := p.Stats()
	if st.InUse != 0 || st.Idle != 1 {
		t.Fatalf("pool after reclaim = %+v, want the client idle again", st)
	}
	if got := reg.Gauge("serve.pool.in_use").Value(); got != 0 {
		t.Fatalf("in_use gauge = %d after reclaim, want 0", got)
	}
}

// TestPoolCancelStormCheckoutAccounting hammers Get with expiring contexts
// against a size-1 pool: whatever interleaving of handoffs and
// cancellations occurs, serve.pool.checkouts must equal the number of Gets
// that actually returned a client, and the pool must quiesce balanced.
func TestPoolCancelStormCheckoutAccounting(t *testing.T) {
	reg := obs.New()
	s, _ := startServer(t, Options{})
	p := NewPool(s.Addr(), 1, Options{Metrics: reg})
	defer p.Close()
	var succ atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%7)*time.Millisecond)
			defer cancel()
			cl, err := p.Get(ctx)
			if err != nil {
				return
			}
			succ.Add(1)
			time.Sleep(500 * time.Microsecond) // hold the lease so waiters pile up
			p.Put(cl)
		}(i)
	}
	wg.Wait()
	if got := reg.Counter("serve.pool.checkouts").Value(); got != succ.Load() {
		t.Fatalf("checkouts = %d, successful Gets = %d: reclaim or handoff miscounted", got, succ.Load())
	}
	st := p.Stats()
	if st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("pool did not quiesce: %+v", st)
	}
	if got := reg.Gauge("serve.pool.in_use").Value(); got != 0 {
		t.Fatalf("in_use gauge = %d after storm, want 0", got)
	}
}

// TestPoolMultiplexesPipelinedConnection: additional checkouts lease a
// pooled client's connection (up to its window) instead of waiting — a
// size-1 pool serves three concurrent checkouts over one transport.
func TestPoolMultiplexesPipelinedConnection(t *testing.T) {
	s, _ := startServer(t, Options{})
	p := NewPool(s.Addr(), 1, Options{Metrics: obs.New(), Window: 4})
	defer p.Close()
	ctx := context.Background()
	c1, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(ctx) // would block forever on a non-multiplexing size-1 pool
	if err != nil {
		t.Fatal(err)
	}
	c3, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 || c3 != c1 {
		t.Fatal("multiplexed checkouts did not share the one pooled connection")
	}
	st := p.Stats()
	if st.Conns != 1 || st.InUse != 3 || st.Idle != 0 {
		t.Fatalf("stats with three leases on one conn = %+v", st)
	}
	// The leases are real: all three can run exchanges.
	var wg sync.WaitGroup
	var fail atomic.Value
	for _, c := range []*Client{c1, c2, c3} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Call(Request{Type: Clear}); err != nil {
				fail.Store(err)
			}
		}(c)
	}
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatalf("multiplexed exchange failed: %v", err)
	}
	p.Put(c1)
	p.Put(c2)
	p.Put(c3)
	st = p.Stats()
	if st.Conns != 1 || st.InUse != 0 || st.Idle != 1 {
		t.Fatalf("stats after returning all leases = %+v", st)
	}
}

// bulkLink is the campus link of the interleave tests: 10 ms RTT and
// 20 MB/s, so one 2 MB slab occupies the link for 100 ms and one 64 KiB
// chunk for ~3.3 ms.
var bulkLink = netem.Config{RTT: 10 * time.Millisecond, BandwidthBps: 20e6}

// TestSmallCallOvertakesBulkTransfer is the head-of-line regression test.
// A small call issued while another call's 2 MB slab is on the wire — as a
// PUT going out, or as a GET reply coming back — must return within one
// round trip plus four chunk-times, not after the 100 ms the slab holds
// the link; and the bulk payload must still arrive bitwise intact.
func TestSmallCallOvertakesBulkTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive link emulation")
	}
	chunkTime := time.Duration(float64(slabChunk) / bulkLink.BandwidthBps * float64(time.Second))
	limit := bulkLink.RTT + 4*chunkTime
	bulk := matrix.Rand(rand.New(rand.NewSource(3)), 2500, 100, -1, 1) // 2 MB
	small := matrix.FromRows([][]float64{{1, 2}, {3, 4}})

	for _, dir := range []string{"put", "get"} {
		t.Run(dir, func(t *testing.T) {
			s, h := startServer(t, Options{Netem: bulkLink, Metrics: obs.New()})
			c, err := Dial(s.Addr(), Options{Netem: bulkLink, Window: 8, Metrics: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			seed := []Request{{Type: Put, ID: 2, Data: MatrixPayload(small)}}
			if dir == "get" {
				seed = append(seed, Request{Type: Put, ID: 1, Data: MatrixPayload(bulk)})
			}
			if _, err := c.Call(seed...); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // let the link go idle

			type result struct {
				resps []Response
				err   error
				at    time.Time
			}
			done := make(chan result, 1)
			req := Request{Type: Put, ID: 1, Data: MatrixPayload(bulk)}
			if dir == "get" {
				req = Request{Type: Get, ID: 1}
			}
			var bulkSpan, smallSpan obs.Span
			go func() {
				resps, err := c.CallCtx(obs.WithSpan(context.Background(), &bulkSpan), req)
				done <- result{resps, err, time.Now()}
			}()
			// A quarter into the slab's 100 ms on the link, whichever way
			// it travels.
			time.Sleep(25 * time.Millisecond)

			start := time.Now()
			got, err := c.CallOneCtx(obs.WithSpan(context.Background(), &smallSpan), Request{Type: Get, ID: 2})
			took, returned := time.Since(start), time.Now()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Data.Matrix().EqualApprox(small, 0) {
				t.Fatal("small call returned the wrong matrix")
			}
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			t.Logf("small call %v (limit %v) while the %s slab was in flight", took, limit, dir)
			if took > limit {
				t.Fatalf("small call took %v behind the bulk %s, want <= RTT + 4 chunk-times = %v", took, dir, limit)
			}
			if !returned.Before(res.at) {
				t.Fatalf("small call returned after the bulk %s finished: it waited behind the slab", dir)
			}
			// Phases stay with their call: the slab's time on the link is
			// the bulk call's encode (PUT) or network and decode (GET), and
			// none of it is charged to the small call that cut in.
			t.Logf("bulk span: %s", bulkSpan)
			t.Logf("small span: %s", smallSpan)
			if sum := smallSpan.Queue + smallSpan.Encode + smallSpan.Network + smallSpan.Decode; sum > limit {
				t.Fatalf("small call charged %v of queue+encode+network+decode, want <= %v", sum, limit)
			}
			bulkLinkTime := bulkSpan.Encode
			if dir == "get" {
				bulkLinkTime = bulkSpan.Network + bulkSpan.Decode
			}
			if bulkLinkTime < 50*time.Millisecond {
				t.Fatalf("bulk %s charged only %v for its 100 ms slab", dir, bulkLinkTime)
			}
			h.mu.Lock()
			back := h.store[1].Matrix()
			h.mu.Unlock()
			if dir == "get" {
				back = res.resps[0].Data.Matrix()
			}
			if !payloadEqual(MatrixPayload(back), MatrixPayload(bulk)) {
				t.Fatalf("bulk %s payload not bitwise equal after the interleave", dir)
			}
		})
	}
}

// TestWriteDeadlineCoversEachHold: the client's I/O timeout bounds each
// hold of the write token, as on the server, not the whole of a bulk
// write — so a PUT that spends longer on the link than the timeout, in
// chunks that each take a fraction of it, succeeds.
func TestWriteDeadlineCoversEachHold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive link emulation")
	}
	s, h := startServer(t, Options{Netem: bulkLink})
	c, err := Dial(s.Addr(), Options{Netem: bulkLink, IOTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bulk := matrix.Rand(rand.New(rand.NewSource(4)), 2500, 100, -1, 1) // 2 MB: 100 ms on the link
	start := time.Now()
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: MatrixPayload(bulk)}); err != nil {
		t.Fatalf("2 MB PUT under a 40 ms I/O timeout, after %v: %v", time.Since(start), err)
	}
	h.mu.Lock()
	back := h.store[1].Matrix()
	h.mu.Unlock()
	if !payloadEqual(MatrixPayload(back), MatrixPayload(bulk)) {
		t.Fatal("PUT payload not bitwise equal")
	}
}

// parkingHandler is the echo handler with one twist: a GET of parkID
// blocks until release is closed, so a call can be held in flight.
type parkingHandler struct {
	*echoHandler
	release chan struct{}
}

const parkID = 99

func (h parkingHandler) Handle(reqs []Request) []Response {
	for _, r := range reqs {
		if r.Type == Get && r.ID == parkID {
			<-h.release
			return []Response{Errorf("released")}
		}
	}
	return h.echoHandler.Handle(reqs)
}

// TestTornInterleaveFailsSession lands a fault inside a chunk that sits
// between another call's frames: a truncation of the request stream, and
// separately a flipped bit in the reply stream. Either must surface as a
// typed error on every call in flight on the session — the bulk calls
// whose chunks interleave and a third parked in the handler — and leave no
// object of a torn batch at the worker. (A flipped bit shows when its
// slab's checksum is checked, at the slab's last chunk; a reply that
// completed before that was not in flight any more and must simply be
// intact.)
func TestTornInterleaveFailsSession(t *testing.T) {
	if testing.Short() {
		t.Skip("link emulation")
	}
	m1 := matrix.Fill(1250, 100, 1.5) // 1 MB each
	m2 := matrix.Fill(1250, 100, -2)
	want := map[int64]Payload{1: MatrixPayload(m1), 2: MatrixPayload(m2)}
	for _, fault := range []string{"truncation", "corruption"} {
		t.Run(fault, func(t *testing.T) {
			h := parkingHandler{newEchoHandler(), make(chan struct{})}
			serverOpts, clientOpts := Options{Netem: bulkLink}, Options{Netem: bulkLink, Window: 8, Metrics: obs.New()}
			var faults *netem.Faults
			var typed error
			if fault == "truncation" {
				faults = netem.NewFaults(netem.FaultConfig{Truncations: 1, TruncateAfterBytes: 600_000})
				clientOpts.Netem.Faults, typed = faults, netem.ErrInjectedTruncation
			} else {
				faults = netem.NewFaults(netem.FaultConfig{CorruptBytes: 1, CorruptAfterBytes: 600_000})
				serverOpts.Netem.Faults, typed = faults, ErrDesync
			}
			s, err := Serve("127.0.0.1:0", h, serverOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			defer close(h.release)
			c, err := Dial(s.Addr(), clientOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			bulk := []Request{{Type: Put, ID: 1, Data: MatrixPayload(m1)}, {Type: Put, ID: 2, Data: MatrixPayload(m2)}}
			if fault == "corruption" {
				// The objects go up intact; their two GET replies are the
				// interleaved streams.
				if _, err := c.Call(bulk...); err != nil {
					t.Fatal(err)
				}
				bulk = []Request{{Type: Get, ID: 1}, {Type: Get, ID: 2}}
			}
			h.mu.Lock()
			before := len(h.store)
			h.mu.Unlock()

			parked := make(chan error, 1)
			go func() {
				_, err := c.Call(Request{Type: Get, ID: parkID})
				parked <- err
			}()
			type result struct {
				id    int64
				resps []Response
				err   error
			}
			spans := []*obs.Span{{}, {}}
			results := make(chan result, len(bulk))
			for i, rq := range bulk {
				go func(sp *obs.Span, rq Request) {
					resps, err := c.CallCtx(obs.WithSpan(context.Background(), sp), rq)
					results <- result{rq.ID, resps, err}
				}(spans[i], rq)
			}
			failed := 0
			for range bulk {
				r := <-results
				if r.err == nil {
					// Only a reply that completed before the corrupt
					// slab's checksum was checked may succeed, and intact.
					if fault == "truncation" || !payloadEqual(r.resps[0].Data, want[r.id]) {
						t.Fatalf("bulk call %d succeeded on the torn session", r.id)
					}
					continue
				}
				if !errors.Is(r.err, typed) {
					t.Fatalf("bulk call %d on the torn session = %v, want %v", r.id, r.err, typed)
				}
				failed++
			}
			if failed == 0 {
				t.Fatal("no bulk call saw the fault")
			}
			select {
			case err := <-parked:
				if !errors.Is(err, typed) {
					t.Fatalf("parked call on the torn session = %v, want %v", err, typed)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked call survived the torn session")
			}
			if st := faults.Stats(); st.Truncations+st.Corruptions != 1 {
				t.Fatalf("fault stats %+v: the %s never fired", st, fault)
			}
			if fault == "truncation" {
				// Both PUTs had frames on the wire around the cut.
				for i, sp := range spans {
					if sp.BytesOut == 0 {
						t.Fatalf("PUT %d wrote nothing: the cut did not land between interleaved frames", i+1)
					}
				}
			}
			h.mu.Lock()
			after := len(h.store)
			h.mu.Unlock()
			if after != before {
				t.Fatalf("worker holds %d objects after the torn session, %d before", after, before)
			}
			// The client redials and works on.
			if _, err := c.Call(Request{Type: Clear}); err != nil {
				t.Fatalf("call after the torn session: %v", err)
			}
		})
	}
}
