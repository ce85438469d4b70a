package fedrpc

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"exdra/internal/netem"
	"exdra/internal/obs"
)

// Handler processes a batch of federated requests from one RPC. A federated
// worker implements this (package worker).
type Handler interface {
	Handle(reqs []Request) []Response
}

// ContextHandler is an optional extension: a handler that also accepts a
// context scoped to the server's lifetime (canceled on Server.Close), so a
// long batch can abandon remaining requests when the worker shuts down.
// The server prefers HandleContext when the handler implements it.
type ContextHandler interface {
	HandleContext(ctx context.Context, reqs []Request) []Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(reqs []Request) []Response

// Handle calls f.
func (f HandlerFunc) Handle(reqs []Request) []Response { return f(reqs) }

// Server accepts coordinator connections and dispatches request batches to
// a handler. Multiple coordinator connections are served concurrently; the
// handler must be safe for concurrent use.
type Server struct {
	ln          net.Listener
	handler     Handler
	ioTimeout   time.Duration
	idleTimeout time.Duration
	maxConns    int
	reg         *obs.Registry
	cancel      context.CancelFunc
	baseCtx     context.Context

	mu     sync.Mutex
	closed bool                  // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	wg     sync.WaitGroup
}

// Serve listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine until Close.
func Serve(addr string, h Handler, opts Options) (*Server, error) {
	raw, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fedrpc: listen %s: %w", addr, err)
	}
	ln := netem.WrapListener(raw, opts.Netem)
	if opts.TLS != nil {
		ln = tls.NewListener(ln, opts.TLS)
	}
	s := &Server{
		ln:          ln,
		handler:     h,
		ioTimeout:   timeout(opts.IOTimeout, DefaultIOTimeout),
		idleTimeout: timeout(opts.IdleTimeout, DefaultIdleTimeout),
		maxConns:    opts.MaxConns,
		reg:         opts.metrics(),
		conns:       map[net.Conn]struct{}{},
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.reg.Counter("worker.conn_rejects").Inc()
			s.wg.Add(1)
			go s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.reg.Gauge("worker.conns").Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// rejectDelay is how long an over-limit connection is parked before it is
// closed. The pause is the "backoff" half of reject-with-backoff: a client
// retrying in a tight loop is paced at one attempt per delay instead of
// spinning the accept loop.
const rejectDelay = 100 * time.Millisecond

// rejectConn disposes of a connection accepted beyond MaxConns: hold it for
// rejectDelay (or until the server closes), then drop it without a byte.
// The client sees a dead stream and applies its own retry policy.
func (s *Server) rejectConn(conn net.Conn) {
	defer s.wg.Done()
	t := time.NewTimer(rejectDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.baseCtx.Done():
	}
	conn.Close()
}

// serverInflightWindow caps concurrently executing batches per connection.
// It backstops a runaway pipelining client: past the cap the read loop stops
// pulling envelopes off the wire, so backpressure reaches the sender through
// TCP flow control rather than unbounded handler goroutines. It also caps
// the batches whose slabs are still arriving (more is a desync), which is
// why a client's window is clamped to it.
const serverInflightWindow = 64

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.reg.Gauge("worker.conns").Add(-1)
	}()
	// Registered after the cleanup defer, so it runs first (LIFO): every
	// in-flight batch finishes and flushes its reply before the connection
	// closes, even when the read side exits on EOF.
	var hwg sync.WaitGroup
	defer hwg.Wait()
	bw := bufio.NewWriterSize(conn, 1<<16)
	br := bufio.NewReaderSize(conn, frameReadBuf)

	if s.idleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
	if s.ioTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
	}
	if err := serverHandshake(br, bw); err != nil {
		// A peer that vanished before its first byte is nothing to log.
		if !errors.Is(err, io.EOF) {
			log.Printf("fedrpc: handshake from %s: %v", conn.RemoteAddr(), err)
		}
		return
	}

	enc := gob.NewEncoder(bw)
	rd := newFrameReader[wireEnvelope](br, serverInflightWindow)

	// Replies from concurrently executing batches share the stream under a
	// write token (a channel, not a mutex: encoding can block on the
	// network and must never happen under a lock). A reply gives the token
	// up between its chunks (frameWriter.yield), so the envelope and short
	// slabs of a waiting reply go out before a bulk reply's next chunk.
	// wfail poisons the connection after the first write failure so later
	// replies don't log a cascade against a stream already known dead.
	wtok := make(chan struct{}, 1)
	var wfail atomic.Bool
	take := func() bool {
		wtok <- struct{}{}
		if wfail.Load() {
			return false
		}
		if s.ioTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
		}
		return true
	}
	writeOne := func(resps []Response, elapsed time.Duration, tag uint64) {
		defer func() { <-wtok }()
		if !take() {
			return
		}
		fw := &frameWriter{bw: bw, w: conn, enc: enc, tag: tag, yield: func() error {
			<-wtok
			if !take() {
				return errWriterPoisoned
			}
			return nil
		}}
		werr := writeReply(fw, resps, int64(elapsed))
		switch {
		case errors.Is(werr, errWriterPoisoned):
			return
		case werr != nil:
			log.Printf("fedrpc: encode to %s: %v", conn.RemoteAddr(), werr)
		default:
			ferr := bw.Flush()
			if ferr == nil {
				return
			}
			// A reply lost mid-write must leave a server-side trace, same
			// as an encode failure: the client only sees a dead stream.
			log.Printf("fedrpc: flush to %s: %v", conn.RemoteAddr(), ferr)
		}
		// A partial reply desyncs the stream for every batch on it: poison
		// the writer and close the connection to unblock the read loop.
		wfail.Store(true)
		conn.Close()
	}

	// sem bounds concurrently executing batches (see serverInflightWindow).
	sem := make(chan struct{}, serverInflightWindow)
	for {
		// The read deadline doubles as the idle bound: a coordinator that
		// vanished mid-request or stopped talking entirely releases this
		// goroutine and its symbol-table references instead of pinning them
		// forever.
		if s.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		reqs, deadlineNanos, tag, rerr := readBatch(rd)
		if rerr != nil {
			if !errors.Is(rerr, io.EOF) && !errors.Is(rerr, net.ErrClosed) {
				log.Printf("fedrpc: decode from %s: %v", conn.RemoteAddr(), rerr)
			}
			return
		}
		if wfail.Load() {
			return
		}
		// Execute concurrently; the reply carries the echoed tag so the
		// client routes it regardless of completion order.
		sem <- struct{}{}
		hwg.Add(1)
		go func(reqs []Request, deadlineNanos int64, tag uint64) {
			defer hwg.Done()
			defer func() { <-sem }()
			start := time.Now()
			resps := s.handleBatch(reqs, deadlineNanos)
			elapsed := time.Since(start)
			s.observe(reqs, elapsed)
			writeOne(resps, elapsed, tag)
		}(reqs, deadlineNanos, tag)
	}
}

// errWriterPoisoned ends a reply whose connection another reply's write
// failure already closed.
var errWriterPoisoned = errors.New("fedrpc: connection writer poisoned")

// handleBatch runs one request batch under the deadline the client put on
// the wire (deadlineNanos, relative; 0 = none).
//
// With a deadline, the handler runs in its own goroutine so the reply can
// be written the moment the budget expires: the client is waiting with a
// budget-plus-grace I/O deadline of its own, and a typed reply that beats
// that window keeps the connection alive instead of forcing a teardown-and-redial. A context-aware handler
// (package worker) usually notices the expiry itself and returns typed
// responses first; the select here is the backstop for a kernel too deep
// in compute to check. The abandoned goroutine finishes its current op,
// sends into the buffered channel, and exits — its late result is simply
// discarded.
func (s *Server) handleBatch(reqs []Request, deadlineNanos int64) []Response {
	if deadlineNanos <= 0 {
		return s.safeHandle(s.baseCtx, reqs)
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, time.Duration(deadlineNanos))
	defer cancel()
	done := make(chan []Response, 1)
	go func() { done <- s.safeHandle(ctx, reqs) }()
	select {
	case resps := <-done:
		return resps
	case <-ctx.Done():
		if context.Cause(ctx) != context.DeadlineExceeded {
			// Server shutdown, not budget expiry: let the handler observe
			// the cancellation and produce its own shutdown responses.
			return <-done
		}
		resps := make([]Response, len(reqs))
		for i := range resps {
			resps[i] = Response{
				Err:  fmt.Sprintf("deadline exceeded after %s", time.Duration(deadlineNanos)),
				Code: CodeDeadlineExceeded,
			}
		}
		return resps
	}
}

// safeHandle converts handler panics into error responses so a malformed
// instruction cannot take down a standing worker. It is the backstop for
// handlers that do not recover themselves: it can only fail the whole
// batch, so package worker recovers per request and a panic never reaches
// here from it. Context-aware handlers get ctx; plain handlers are called
// as before.
func (s *Server) safeHandle(ctx context.Context, reqs []Request) (resps []Response) {
	defer func() {
		if r := recover(); r != nil {
			resps = make([]Response, len(reqs))
			for i := range resps {
				resps[i] = Errorf("worker panic: %v", r)
			}
		}
	}()
	if ch, ok := s.handler.(ContextHandler); ok {
		return ch.HandleContext(ctx, reqs)
	}
	return s.handler.Handle(reqs)
}

// observe reports one served batch into the registry.
func (s *Server) observe(reqs []Request, elapsed time.Duration) {
	s.reg.Counter("rpc.server.batches").Inc()
	for _, rq := range reqs {
		s.reg.Counter("rpc.server.requests." + rq.Type.String()).Inc()
	}
	s.reg.Histogram("rpc.server.execute_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
}

// Close stops accepting connections, cancels the handler context, and
// terminates active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
