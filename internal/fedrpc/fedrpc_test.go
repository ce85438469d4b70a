package fedrpc

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/netem"
)

// echoHandler stores PUT payloads and returns them on GET.
type echoHandler struct {
	mu    sync.Mutex
	store map[int64]Payload
}

func newEchoHandler() *echoHandler { return &echoHandler{store: map[int64]Payload{}} }

func (h *echoHandler) Handle(reqs []Request) []Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Response, len(reqs))
	for i, r := range reqs {
		switch r.Type {
		case Put:
			h.store[r.ID] = r.Data
			out[i] = Response{OK: true}
		case Get:
			p, ok := h.store[r.ID]
			if !ok {
				out[i] = Errorf("no object %d", r.ID)
				continue
			}
			out[i] = Response{OK: true, Data: p}
		case Clear:
			h.store = map[int64]Payload{}
			out[i] = Response{OK: true}
		default:
			out[i] = Errorf("unsupported %s", r.Type)
		}
	}
	return out
}

func startServer(t *testing.T, opts Options) (*Server, *echoHandler) {
	t.Helper()
	h := newEchoHandler()
	s, err := Serve("127.0.0.1:0", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, h
}

// ackPrelude completes the server half of the handshake on a raw
// connection, unbuffered, so a hand-rolled test peer can carry on with the
// bytes that follow.
func ackPrelude(conn net.Conn) error {
	if err := readPrelude(conn); err != nil {
		return err
	}
	_, err := conn.Write(wirePrelude[:])
	return err
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := c.CallOne(Request{Type: Put, ID: 7, Data: MatrixPayload(m)}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.CallOne(Request{Type: Get, ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Data.Matrix().EqualApprox(m, 0) {
		t.Fatal("matrix round trip")
	}
}

func TestFramePayloadRoundTrip(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := frame.MustNew(
		frame.StringColumn("A", []string{"x", "", "z"}),
		frame.FloatColumn("B", []float64{1, 2, 3}),
	)
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: FramePayload(f)}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.CallOne(Request{Type: Get, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.Data.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.Column(0).AsString(2) != "z" || !got.Column(0).IsNA(1) {
		t.Fatal("frame round trip")
	}
}

func TestBatchedRequestsOneRPC(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resps, err := c.Call(
		Request{Type: Put, ID: 1, Data: ScalarPayload(5)},
		Request{Type: Get, ID: 1},
		Request{Type: Get, ID: 99}, // fails, but batch continues
		Request{Type: Get, ID: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].OK || !resps[1].OK || resps[2].OK || !resps[3].OK {
		t.Fatalf("batch semantics: %+v", resps)
	}
	if resps[1].Data.Scalar != 5 {
		t.Fatal("scalar payload")
	}
}

func TestPerRequestErrorViaCallOne(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CallOne(Request{Type: Get, ID: 404})
	if err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("want per-request error, got %v", err)
	}
}

func TestTLSEncryptedChannel(t *testing.T) {
	srvTLS, cliTLS, err := NewSelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := startServer(t, Options{TLS: srvTLS})
	c, err := Dial(s.Addr(), Options{TLS: cliTLS})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := matrix.Fill(4, 4, 2)
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: MatrixPayload(m)}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.CallOne(Request{Type: Get, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Data.Matrix().EqualApprox(m, 0) {
		t.Fatal("TLS round trip")
	}
	// A plaintext client must not be able to talk to a TLS server.
	plain, err := Dial(s.Addr(), Options{})
	if err == nil {
		if _, err := plain.Call(Request{Type: Get, ID: 1}); err == nil {
			t.Fatal("plaintext client succeeded against TLS server")
		}
		plain.Close()
	}
}

func TestWANEmulationAddsLatency(t *testing.T) {
	wan := netem.Config{RTT: 30 * time.Millisecond}
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{Netem: wan})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The dial-time framing handshake and the call below must land in
	// separate message bursts (netem charges RTT once per burst), so let
	// the burst gap elapse before measuring.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: ScalarPayload(1)}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("WAN RTT not applied: call took %v", d)
	}
	// LAN for comparison.
	lan, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lan.Close()
	start = time.Now()
	if _, err := lan.CallOne(Request{Type: Put, ID: 2, Data: ScalarPayload(1)}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Logf("LAN call unexpectedly slow: %v", d)
	}
}

func TestByteCounters(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: MatrixPayload(matrix.Randn(rng, 100, 100, 0, 1))}); err != nil {
		t.Fatal(err)
	}
	// gob encodes float64 values compactly, but random values need close to
	// the full 8 bytes each.
	if c.BytesSent() < 8*100*100*3/4 {
		t.Fatalf("bytes sent %d, want at least ~the matrix payload", c.BytesSent())
	}
	if c.BytesReceived() == 0 {
		t.Fatal("no bytes received")
	}
}

func TestClosedClientErrors(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(Request{Type: Get, ID: 1}); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerSurvivesHandlerPanic(t *testing.T) {
	h := HandlerFunc(func(reqs []Request) []Response { panic("boom") })
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
	resps, err := c.Call(Request{Type: Get, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].OK || !strings.Contains(resps[0].Err, "panic") {
		t.Fatalf("panic not converted to error: %+v", resps[0])
	}
	// The connection must still work afterwards.
	if _, err := c.Call(Request{Type: Get, ID: 2}); err != nil {
		t.Fatal("connection dead after panic")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startServer(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				id := int64(g*100 + i)
				if _, err := c.CallOne(Request{Type: Put, ID: id, Data: ScalarPayload(float64(id))}); err != nil {
					t.Error(err)
					return
				}
				resp, err := c.CallOne(Request{Type: Get, ID: id})
				if err != nil || resp.Data.Scalar != float64(id) {
					t.Errorf("get %d: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRequestTypeString(t *testing.T) {
	if Read.String() != "READ" || ExecUDF.String() != "EXEC_UDF" || Clear.String() != "CLEAR" {
		t.Fatal("request type names")
	}
}

// TestIOTimeoutUnblocksSilentPeer proves the liveness invariant behind the
// netdeadline lint rule: a peer that accepts the connection but never
// replies must not hang the caller forever — the armed deadline errors the
// RPC out.
func TestIOTimeoutUnblocksSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Shake hands, then drain the request but never answer.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := ackPrelude(conn); err != nil {
			return
		}
		buf := make([]byte, 1<<16)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{IOTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(Request{Type: Clear})
	if err == nil {
		t.Fatal("Call against a silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline did not bound the call: blocked %v", elapsed)
	}
	ln.Close()
	<-done
}

// TestServerIdleTimeoutReclaimsConnection proves the server side: a client
// that connects and goes quiet is reclaimed after IdleTimeout, so stuck
// coordinators cannot pin worker goroutines.
func TestServerIdleTimeoutReclaimsConnection(t *testing.T) {
	s, _ := startServer(t, Options{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server's read deadline should close the conn.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close the idle connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle connection survived %v", elapsed)
	}
}

// TestTimeoutThenCleanCall is the regression test for the broken-connection
// seed bug: after a timed-out exchange the client used to keep the dead
// conn and desync the gob stream, so the *next* Call failed confusingly (or
// read the stale late reply). Now the failed exchange tears the transport
// down and the next Call reconnects and succeeds cleanly.
func TestTimeoutThenCleanCall(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	h := HandlerFunc(func(reqs []Request) []Response {
		if slow.Load() {
			time.Sleep(600 * time.Millisecond) // outlives the client deadline
		}
		out := make([]Response, len(reqs))
		for i := range out {
			out[i] = Response{OK: true, Data: ScalarPayload(42)}
		}
		return out
	})
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), Options{IOTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(Request{Type: Get, ID: 1}); err == nil {
		t.Fatal("slow exchange did not time out")
	}
	if !c.Broken() {
		t.Fatal("timed-out client not marked broken")
	}
	slow.Store(false)
	resps, err := c.Call(Request{Type: Get, ID: 1})
	if err != nil {
		t.Fatalf("call after timeout not clean: %v", err)
	}
	if !resps[0].OK || resps[0].Data.Scalar != 42 {
		t.Fatalf("reconnected call got desynced reply: %+v", resps[0])
	}
	if c.Broken() {
		t.Fatal("client still broken after successful reconnect")
	}
}

// TestCallRecoversFromInjectedReset drives the full fault path: netem kills
// the connection mid-exchange, the client marks itself broken, and the next
// Call reconnects and completes, with the byte counters carried across.
func TestCallRecoversFromInjectedReset(t *testing.T) {
	s, _ := startServer(t, Options{})
	faults := netem.NewFaults(netem.FaultConfig{Seed: 3, ConnResets: 1, ResetAfterBytes: 3000})
	c, err := Dial(s.Addr(), Options{Netem: netem.Config{Faults: faults}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const payloadBytes = 16 * 16 * 8
	payload := MatrixPayload(matrix.Fill(16, 16, 1))
	// One 2 KB round trip fits under the threshold; the next PUT crosses it.
	if _, err := c.CallOne(Request{Type: Put, ID: 2, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallOne(Request{Type: Get, ID: 2}); err != nil {
		t.Fatal(err)
	}
	sent, recv := c.BytesSent(), c.BytesReceived()
	if sent < payloadBytes || recv < payloadBytes {
		t.Fatalf("counted %d/%d bytes for a 2 KB round trip", sent, recv)
	}
	_, err = c.Call(Request{Type: Put, ID: 1, Data: payload})
	if err == nil {
		t.Fatal("injected reset did not surface")
	}
	if !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("unexpected error: %v", err)
	}
	if !c.Broken() {
		t.Fatal("client not broken after injected reset")
	}
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: payload}); err != nil {
		t.Fatalf("retry after reset failed: %v", err)
	}
	if got, err := c.CallOne(Request{Type: Get, ID: 1}); err != nil || got.Data.Matrix() == nil {
		t.Fatalf("object lost across reconnect: %v", err)
	}
	// The byte counters belong to the client, not the session: the new
	// transport's 2 KB round trip adds to what the old one moved.
	if c.BytesSent() < sent+payloadBytes || c.BytesReceived() < recv+payloadBytes {
		t.Fatalf("counters reset by the reconnect: %d/%d before, %d/%d after another 2 KB round trip",
			sent, recv, c.BytesSent(), c.BytesReceived())
	}
	if faults.Stats().Resets != 1 {
		t.Fatalf("faults injected %d resets, want 1", faults.Stats().Resets)
	}
}

// TestClosedClientDoesNotRedial: Close is final; only broken clients
// reconnect.
func TestClosedClientDoesNotRedial(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.Broken() {
		t.Fatal("closed client reported broken")
	}
	if _, err := c.Call(Request{Type: Get, ID: 1}); err == nil {
		t.Fatal("closed client reconnected")
	}
}
