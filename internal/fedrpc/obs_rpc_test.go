package fedrpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/obs"
)

// TestCallCloseRaceObservesErrClosed hammers Call and Redial from several
// goroutines while Close lands mid-flight. Every Call must either succeed
// (it finished before Close) or report ErrClosed — never panic on a nil
// conn, never silently redial past Close, and never surface a bare
// transport error for a close-induced interruption. Run under -race.
func TestCallCloseRaceObservesErrClosed(t *testing.T) {
	s, _ := startServer(t, Options{})
	for iter := 0; iter < 25; iter++ {
		c, err := Dial(s.Addr(), Options{Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var raceErr atomic.Value
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Call(Request{Type: Clear}); err != nil {
						if !errors.Is(err, ErrClosed) {
							raceErr.Store(err)
						}
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := c.Redial(); err != nil && !errors.Is(err, ErrClosed) {
					raceErr.Store(err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter%5) * time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		close(stop)
		wg.Wait()
		if err := raceErr.Load(); err != nil {
			t.Fatalf("iter %d: call/redial racing close got non-ErrClosed error: %v", iter, err)
		}
		if _, err := c.Call(Request{Type: Clear}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: call after close = %v, want ErrClosed", iter, err)
		}
		if c.Broken() {
			t.Fatalf("iter %d: closed client reports Broken", iter)
		}
	}
}

// TestCloseDoesNotBlockOnInFlightCall pins a Call against a server that
// never replies, then closes the client: Close must return promptly (not
// wait out the 2-minute I/O deadline behind the exchange lock) and the
// interrupted Call must observe ErrClosed.
func TestCloseDoesNotBlockOnInFlightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // shake hands, then swallow and never reply
				if ackPrelude(c) == nil {
					_, _ = io.Copy(io.Discard, c)
				}
			}(conn)
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(Request{Type: Health})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the call block on the reply

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close blocked %v behind the in-flight call", d)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted call = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call did not return after Close")
	}
}

// TestClientMetricsAndSpans verifies one round trip populates the client
// and server registries: per-type request counters, byte totals, the five
// phase histograms, the per-type latency histogram, and the span ring.
func TestClientMetricsAndSpans(t *testing.T) {
	creg, sreg := obs.New(), obs.New()
	s, _ := startServer(t, Options{Metrics: sreg})
	c, err := Dial(s.Addr(), Options{Metrics: creg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sp := &obs.Span{}
	ctx := obs.WithSpan(obs.WithOp(context.Background(), "test-op"), sp)
	if _, err := c.CallCtx(ctx, Request{Type: Clear}, Request{Type: Clear}); err != nil {
		t.Fatal(err)
	}

	snap := creg.Snapshot()
	if snap.Counters["rpc.client.calls"] != 1 {
		t.Fatalf("calls = %d, want 1", snap.Counters["rpc.client.calls"])
	}
	if snap.Counters["rpc.client.requests.CLEAR"] != 2 {
		t.Fatalf("requests.CLEAR = %d, want 2", snap.Counters["rpc.client.requests.CLEAR"])
	}
	if snap.Counters["rpc.client.bytes_out"] <= 0 || snap.Counters["rpc.client.bytes_in"] <= 0 {
		t.Fatalf("byte counters not recorded: %v", snap.Counters)
	}
	for _, h := range []string{"queue", "encode", "network", "execute", "decode"} {
		if snap.Histograms["rpc.client.phase."+h].Count != 1 {
			t.Fatalf("phase histogram %s count = %d, want 1", h, snap.Histograms["rpc.client.phase."+h].Count)
		}
	}
	if snap.Histograms["rpc.client.call_seconds.CLEAR"].Count != 1 {
		t.Fatal("per-type latency histogram not observed")
	}

	if sp.Op != "test-op" || sp.Addr != s.Addr() || sp.Batch != 2 || sp.ReqType != "CLEAR" {
		t.Fatalf("span not populated: %+v", sp)
	}
	if sp.Total <= 0 || sp.BytesOut <= 0 || sp.BytesIn <= 0 {
		t.Fatalf("span timings/bytes not populated: %+v", sp)
	}
	spans := creg.Spans()
	if len(spans) != 1 || spans[0].ReqType != "CLEAR" {
		t.Fatalf("span ring = %+v, want one CLEAR span", spans)
	}

	ssnap := sreg.Snapshot()
	if ssnap.Counters["rpc.server.requests.CLEAR"] != 2 || ssnap.Counters["rpc.server.batches"] != 1 {
		t.Fatalf("server counters = %v", ssnap.Counters)
	}
	if ssnap.Histograms["rpc.server.execute_seconds"].Count != 1 {
		t.Fatal("server execute histogram not observed")
	}
}

// TestErrorsCountedInMetrics verifies a transport failure increments the
// error counter and records an errored span.
func TestErrorsCountedInMetrics(t *testing.T) {
	reg := obs.New()
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(Request{Type: Clear}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["rpc.client.errors"] != 1 {
		t.Fatalf("errors = %d, want 1", snap.Counters["rpc.client.errors"])
	}
	spans := reg.Spans()
	if len(spans) != 1 || spans[0].Err == "" {
		t.Fatalf("errored span not recorded: %+v", spans)
	}
}

// TestSlowRPCLogged verifies the slow-call threshold emits the structured
// log line and bumps the counter.
func TestSlowRPCLogged(t *testing.T) {
	reg := obs.New()
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{Metrics: reg, SlowRPC: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	if _, err := c.Call(Request{Type: Clear}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("rpc.client.slow_calls").Value() != 1 {
		t.Fatalf("slow_calls = %d, want 1", reg.Counter("rpc.client.slow_calls").Value())
	}
	line := buf.String()
	for _, want := range []string{"slow rpc", "threshold=", "type=CLEAR", "total=", "queue="} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-rpc log missing %q: %s", want, line)
		}
	}
}

// ctxProbeHandler implements both Handler and ContextHandler; the server
// must prefer the context-aware path.
type ctxProbeHandler struct {
	viaCtx   atomic.Bool
	viaPlain atomic.Bool
	ctxOK    atomic.Bool
}

func (h *ctxProbeHandler) Handle(reqs []Request) []Response {
	h.viaPlain.Store(true)
	return make([]Response, len(reqs))
}

func (h *ctxProbeHandler) HandleContext(ctx context.Context, reqs []Request) []Response {
	h.viaCtx.Store(true)
	h.ctxOK.Store(ctx.Err() == nil)
	out := make([]Response, len(reqs))
	for i := range out {
		out[i] = Response{OK: true}
	}
	return out
}

func TestServerPrefersContextHandler(t *testing.T) {
	h := &ctxProbeHandler{}
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
	if _, err := c.Call(Request{Type: Health}); err != nil {
		t.Fatal(err)
	}
	if !h.viaCtx.Load() || h.viaPlain.Load() {
		t.Fatalf("handler dispatch: ctx=%v plain=%v, want ctx only", h.viaCtx.Load(), h.viaPlain.Load())
	}
	if !h.ctxOK.Load() {
		t.Fatal("handler context was already canceled during handling")
	}
}
