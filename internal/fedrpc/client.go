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

// ErrClosed marks operations on a client after Close. Unlike a broken
// client — which transparently redials on the next Call — a closed client
// stays closed for good; callers distinguish the two with errors.Is.
var ErrClosed = errors.New("fedrpc: client closed")

// errSessionDetached is the teardown cause of a session retired by Redial
// (or replaced after a drain): not a failure, just the end of that
// transport's life. Calls never observe it — a detached session finishes
// its in-flight calls before tearing down — only reserve waiters do, and
// they retry on the successor session.
var errSessionDetached = errors.New("fedrpc: session detached")

// Default liveness bounds. They are backstops against dead peers, not
// pacing mechanisms, so they are generous: the WAN setting of the paper
// (~1.7 MB/s) still moves ~200 MB within the default I/O window.
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultIOTimeout   = 2 * time.Minute
	DefaultIdleTimeout = 10 * time.Minute
)

// Options configure a client or server endpoint.
type Options struct {
	// TLS enables encrypted communication when non-nil (the paper's SSL
	// setting).
	TLS *tls.Config
	// Netem shapes the underlying connection (LAN/WAN emulation).
	Netem netem.Config
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
	// IOTimeout bounds each hold of the write token (an envelope, and up
	// to slabChunk bytes of chunks) and the wait for the next reply frame
	// on the client, and each hold of a reply write on the server, so a
	// bulk transfer may outlast it while its chunks keep moving. Zero means
	// DefaultIOTimeout; negative disables deadlines (trusted in-process
	// test links).
	IOTimeout time.Duration
	// IdleTimeout bounds how long a server connection may sit between
	// requests (including mid-request stalls) before it is reclaimed.
	// Zero means DefaultIdleTimeout; negative disables it.
	IdleTimeout time.Duration
	// Metrics is the registry RPC counters, histograms, and trace spans
	// report into. Nil uses obs.Default(), so an unconfigured endpoint
	// still shows up on the process /metrics page.
	Metrics *obs.Registry
	// SlowRPC, when positive, flags any exchange whose total duration
	// (queueing included) reaches it: a structured key=value log line is
	// emitted and rpc.client.slow_calls incremented.
	SlowRPC time.Duration
	// MaxConns caps concurrently served connections (server side only).
	// Accepts beyond the cap are rejected with backoff: the connection is
	// held briefly and closed without a byte, so a pooling client cannot
	// exhaust a worker's goroutines and a reconnect storm is paced rather
	// than amplified. Zero or negative means unlimited.
	MaxConns int
	// Window caps how many calls may be pipelined in flight on one
	// connection (client side); dependent-free calls overlap on the wire,
	// so N calls cost ~1 round trip instead of N. Values below 2
	// (including the zero value) mean lock-step: one exchange at a time;
	// values above 64 (the server's per-connection cap) mean 64.
	Window int
}

// metrics resolves the configured registry against the process default.
func (o Options) metrics() *obs.Registry {
	if o.Metrics != nil {
		return o.Metrics
	}
	return obs.Default()
}

// timeout resolves a configured duration against its default: zero picks
// the default, negative disables (returns 0).
func timeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// pendingCall is one in-flight exchange awaiting its reply. Exactly one
// party ever sends on done: the reader (matched reply) or the session
// teardown (transport failure) — never both, because both first remove the
// call from the session table under the session mutex.
type pendingCall struct {
	tag  uint64
	done chan callReply // buffered (cap 1): the sender never blocks
	// in sums the reader's reads of this call's reply frames (blocked time,
	// bytes, wall time), which interleave with other calls' frames; only
	// the reader touches it, and it travels in the delivered callReply.
	in callReply
}

// callReply is what the reader goroutine delivers per matched reply: the
// responses, the server-side handler wall time (which splits the
// blocked-on-reply wait into Network and Execute span phases), and the
// per-call accounting slice of the shared cumulative counters
// (readWait/bytesIn deltas around the reads of this reply's frames).
type callReply struct {
	resps      []Response
	execNanos  int64
	readWait   time.Duration
	bytesIn    int64
	decodeWall time.Duration
	err        error
}

// sessionDeadError marks a call that found its session already torn down
// before touching the wire; CallCtx retries it on a fresh session.
type sessionDeadError struct{ err error }

func (e *sessionDeadError) Error() string {
	if e.err == nil {
		return "fedrpc: session dead"
	}
	return e.err.Error()
}
func (e *sessionDeadError) Unwrap() error { return e.err }

// session is one transport's lifetime: the connection, its codecs, the
// in-flight call table, and the single reader goroutine demultiplexing
// replies. A Client replaces its session wholesale on failure or Redial —
// a gob stream cannot be resumed after a partial exchange — while draining
// sessions finish their in-flight calls before closing.
type session struct {
	c    *Client
	conn net.Conn
	out  io.Writer // under bw: counts the bytes that reach conn
	bw   *bufio.Writer
	enc  *gob.Encoder
	rd   *replyReader

	// writeTok serializes writes to the stream (send to acquire, receive to
	// release): a call holds it for its envelope and then for each
	// slabChunk-sized quantum of its slab chunks, so calls interleave by
	// whole frames. Go queues blocked senders FIFO, so releasing and
	// re-taking it between quanta hands the stream round-robin to every
	// waiting call. The reader never needs it — replies flow on the other
	// half of the duplex.
	writeTok chan struct{}
	// work wakes the reader (buffered, cap 1): signaled after every flush
	// and on teardown/detach, so an idle session keeps no outstanding
	// read and no read deadline.
	work chan struct{}

	mu       sync.Mutex
	inflight map[uint64]*pendingCall // registered calls by tag; guarded by mu
	nextTag  uint64                  // last allocated call tag; guarded by mu
	active   int                     // reserved window slots; guarded by mu
	awaited  int                     // flushed, not yet answered; guarded by mu
	waiters  []chan struct{}         // calls queued for a window slot; guarded by mu
	detached bool                    // draining: no new calls, in-flight finish; guarded by mu
	dead     bool                    // torn down; guarded by mu
	deadErr  error                   // teardown cause; guarded by mu
}

// Client is a coordinator-side connection to one federated worker. A client
// is safe for concurrent use; up to Options.Window calls are pipelined on
// the connection (tagged envelopes, out-of-order replies), and the
// coordinator additionally parallelizes across workers, as in the paper.
//
// A transport failure (encode, flush, decode, or timeout) leaves the gob
// stream desynchronized, so the client tears the session down — failing
// every in-flight call on it with that error — and marks itself broken
// instead of silently reusing the dead stream; the next Call (or an explicit Redial) transparently
// re-establishes the transport. The cumulative byte counters survive
// reconnects.
//
// connMu guards only the session pointer set and is never held across I/O
// or dialing; per-session state lives behind session.mu, acquired strictly
// after connMu when both are needed. Close takes only connMu, then tears
// every live session down — interrupting in-flight calls, which observe
// the closed flag and surface ErrClosed.
type Client struct {
	addr      string
	opts      Options
	ioTimeout time.Duration
	slowRPC   time.Duration
	window    int
	reg       *obs.Registry

	connMu   sync.Mutex
	sess     *session              // active session; nil while broken; guarded by connMu
	sessions map[*session]struct{} // every live session, draining included; guarded by connMu
	dialing  chan struct{}         // closed when the in-flight dial settles; guarded by connMu
	closed   bool                  // Close was called; distinguishes closed from broken; guarded by connMu

	bytesOut atomic.Int64
	bytesIn  atomic.Int64
	readWait atomic.Int64 // cumulative ns blocked in conn reads; reader slices per reply
}

// Dial connects to a federated worker at addr.
func Dial(addr string, opts Options) (*Client, error) {
	window := min(max(opts.Window, 1), serverInflightWindow)
	c := &Client{
		addr:      addr,
		opts:      opts,
		ioTimeout: timeout(opts.IOTimeout, DefaultIOTimeout),
		slowRPC:   opts.SlowRPC,
		window:    window,
		reg:       opts.metrics(),
		sessions:  map[*session]struct{}{},
	}
	if _, err := c.dialSession(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// dialTransport establishes a shaped (and possibly TLS-wrapped) connection
// and completes the wire-version handshake on it. It holds no locks, so a
// slow dial never delays Close or state queries.
//
// The handshake is a dedicated exchange at connect time — never piggybacked
// on the first request batch — at the cost of one extra RTT per connection;
// connections are standing, so the RTT amortizes across the session.
//
// Connect, TLS and version handshake together are bounded by DialTimeout
// or, when sooner, the deadline of ctx: a budgeted call that has to redial
// spends its own budget on it, not the dial timeout, and fails with
// ErrDeadlineExceeded.
func (c *Client) dialTransport(ctx context.Context) (net.Conn, error) {
	var deadline time.Time
	if d := timeout(c.opts.DialTimeout, DefaultDialTimeout); d > 0 {
		deadline = time.Now().Add(d)
	}
	budget, budgeted := ctx.Deadline()
	if budgeted && (deadline.IsZero() || budget.Before(deadline)) {
		deadline = budget
	}
	conn, err := c.connect(ctx, deadline)
	if err != nil && budgeted && !time.Now().Before(budget) {
		return nil, fmt.Errorf("fedrpc: call to %s: %w (%v)", c.addr, ErrDeadlineExceeded, err)
	}
	return conn, err
}

// connect is dialTransport's body: every step shares the one deadline.
func (c *Client) connect(ctx context.Context, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	raw, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("fedrpc: dial %s: %w", c.addr, err)
	}
	conn := netem.Wrap(raw, c.opts.Netem)
	_ = conn.SetDeadline(deadline)
	if c.opts.TLS != nil {
		tconn := tls.Client(conn, c.opts.TLS)
		if err := tconn.Handshake(); err != nil {
			conn.Close()
			return nil, fmt.Errorf("fedrpc: tls handshake with %s: %w", c.addr, err)
		}
		conn = tconn
	}
	if err := negotiate(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fedrpc: handshake with %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{}) // handshake deadline off; per-exchange arming follows
	return conn, nil
}

// newSession wires conn up as a live session: fresh encoder and frame
// reader — a gob stream cannot be resumed after a partial exchange, so both
// ends must restart their codecs — and the session's reader goroutine. The
// cumulative byte counters carry over.
func (c *Client) newSession(conn net.Conn) *session {
	out := &countingWriter{w: conn, n: &c.bytesOut}
	in := &countingReader{r: conn, n: &c.bytesIn, wait: &c.readWait}
	bw := bufio.NewWriterSize(out, 1<<16)
	s := &session{
		c:        c,
		conn:     conn,
		out:      out,
		bw:       bw,
		enc:      gob.NewEncoder(bw),
		rd:       newFrameReader[wireReply](bufio.NewReaderSize(in, frameReadBuf), c.window),
		writeTok: make(chan struct{}, 1),
		work:     make(chan struct{}, 1),
		inflight: map[uint64]*pendingCall{},
	}
	go s.readLoop()
	return s
}

// WindowCap reports how many calls may be multiplexed in flight on this
// client (Options.Window, at least 1). Pools use it to decide between
// multiplexing onto a live connection and dialing a new one.
func (c *Client) WindowCap() int { return c.window }

// Addr returns the worker address this client is connected to.
func (c *Client) Addr() string { return c.addr }

// Call sends a batch of requests as a single RPC and returns one response
// per request. A transport failure returns an error; per-request failures
// are reported in the responses.
func (c *Client) Call(reqs ...Request) ([]Response, error) {
	return c.CallCtx(context.Background(), reqs...)
}

// CallCtx is Call with a context governing the exchange and carrying trace
// metadata: an obs span installed with obs.WithSpan is populated with the
// exchange's phase timings and byte counts, and an obs.WithOp label is
// recorded on the span. Every exchange — labeled or not — is also counted
// in the client's metrics registry and appended to its recent-span ring.
//
// A context deadline becomes the call's time budget: it bounds the local
// exchange I/O (plus a small grace window so the worker's own typed
// DEADLINE_EXCEEDED reply can arrive first) and travels to the server as a
// relative deadline in the request envelope, where it bounds handler
// execution. Budget exhaustion surfaces as an error wrapping both
// ErrDeadlineExceeded and context.DeadlineExceeded. Cancelling ctx while
// the call is still queued for a window slot returns ctx.Err() without
// touching the connection; cancelling it once the call is on the wire
// interrupts the exchange promptly and tears the session down (the stream
// is desynced), failing any calls pipelined alongside it with a transport
// error their retry policy handles like any other connection loss.
func (c *Client) CallCtx(ctx context.Context, reqs ...Request) ([]Response, error) {
	queueStart := time.Now()

	span := obs.SpanFrom(ctx)
	if span == nil {
		span = &obs.Span{}
	}
	span.Op = obs.Op(ctx)
	span.Addr = c.addr
	span.Start = queueStart
	span.Batch = len(reqs)
	if len(reqs) > 0 {
		span.ReqType = reqs[0].Type.String()
	}

	// A call can land on a session that died (or detached for a redial)
	// between lookup and reservation; that touched no wire state, so try
	// a successor session a bounded number of times before giving up.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := c.session(ctx)
		if err != nil {
			c.record(span, reqs, err)
			return nil, err
		}
		resps, err := c.callOn(ctx, s, span, reqs, queueStart)
		var dead *sessionDeadError
		if !errors.As(err, &dead) {
			return resps, err
		}
		lastErr = dead.err
	}
	err := c.classify(ctx, lastErr)
	if err == nil {
		err = fmt.Errorf("fedrpc: call to %s: transport churn", c.addr)
	}
	c.record(span, reqs, err)
	return nil, err
}

// callOn runs one exchange attempt on s. A *sessionDeadError return means
// nothing touched the wire and the caller may retry on a fresh session;
// every other outcome is final and already recorded.
func (c *Client) callOn(ctx context.Context, s *session, span *obs.Span, reqs []Request, queueStart time.Time) ([]Response, error) {
	if err := s.reserve(ctx); err != nil {
		var dead *sessionDeadError
		if errors.As(err, &dead) {
			return nil, err
		}
		// Cancelled while queued for a slot: no exchange started, the
		// connection belongs to the in-flight calls and stays up. The
		// caller's own context error is the whole story.
		c.record(span, reqs, err)
		return nil, err
	}
	if err := s.acquireWrite(ctx); err != nil {
		s.unreserve()
		c.record(span, reqs, err)
		return nil, err
	}
	span.Queue = time.Since(queueStart)

	// The remaining budget (when ctx carries a deadline) travels to the
	// server as a relative deadline and bounds the local I/O below.
	var budget time.Duration
	var deadlineNanos int64
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			s.releaseWrite()
			s.unreserve()
			err := fmt.Errorf("fedrpc: call to %s: %w", c.addr, ErrDeadlineExceeded)
			c.record(span, reqs, err)
			return nil, err
		}
		deadlineNanos = int64(budget)
	}

	call, err := s.register()
	if err != nil {
		s.releaseWrite()
		s.unreserve()
		return nil, err // session died while we queued: retryable
	}

	serr := s.send(ctx, span, reqs, deadlineNanos, budget, call.tag)
	if serr != nil {
		// A partial write desyncs the stream for every call on it. The
		// teardown verdict is the session's first failure, which may be
		// another call's — a write that only hit the closed connection
		// reports that root cause, not its own symptom.
		c.failSession(s, serr)
		cr := <-call.done
		if cr.err != nil {
			serr = cr.err
		}
		err := c.classify(ctx, serr)
		c.record(span, reqs, err)
		return nil, err
	}

	// Await the demultiplexed reply. Deadline expiry grants the worker's
	// typed DEADLINE_EXCEEDED reply a short grace window before the
	// session is declared wedged; cancellation interrupts immediately.
	var cr callReply
	select {
	case cr = <-call.done:
	case <-ctx.Done():
		cr = c.interrupt(ctx, s, call, budget)
	}
	if cr.err != nil {
		err := c.classify(ctx, cr.err)
		c.record(span, reqs, err)
		return nil, err
	}

	// Phase split: time blocked on the wire minus the server's reported
	// handler time is Network; decode wall time minus wire wait is Decode.
	// Both clamp at zero — the clock domains differ.
	span.Execute = time.Duration(cr.execNanos)
	if span.Network = cr.readWait - span.Execute; span.Network < 0 {
		span.Network = 0
	}
	if span.Decode = cr.decodeWall - cr.readWait; span.Decode < 0 {
		span.Decode = 0
	}
	span.BytesIn = cr.bytesIn

	if len(cr.resps) != len(reqs) {
		// The stream answered, but with the wrong cardinality: a protocol
		// desync this connection cannot recover from.
		serr := fmt.Errorf("fedrpc: %s returned %d responses for %d requests",
			c.addr, len(cr.resps), len(reqs))
		c.failSession(s, serr)
		err := c.classify(ctx, serr)
		c.record(span, reqs, err)
		return nil, err
	}
	c.record(span, reqs, nil)
	return cr.resps, nil
}

// send writes the call's frames, starting with the write token held (taken
// by callOn) and ending with it released. Between chunks the frame writer
// hands the token to waiting calls; that wait is queueing, so it goes to
// span.Queue, and the holds alone make span.Encode. Only the bytes that
// reach the connection during this call's holds count as its BytesOut —
// every hold ends with a flush, so those are exactly its own.
//
// An explicit cancellation must interrupt a blocked write now, not when
// the write deadline fires; the watchdog is scoped strictly to each hold
// (armed after taking the token, stopped before giving it up), so a late
// firing can only poison a session the cancellation is about to tear down
// anyway. A deadline expiring mid-write does not interrupt it: each hold
// gets its own write deadline (writeDeadline), the I/O timeout from when it
// starts, capped at the call's budget plus grace.
func (s *session) send(ctx context.Context, span *obs.Span, reqs []Request, deadlineNanos int64, budget time.Duration, tag uint64) error {
	c := s.c
	span.Encode, span.BytesOut = 0, 0
	bdl := budgetDeadline(budget)
	conn := s.conn
	var (
		stopWatch func() bool
		holdStart time.Time
		outStart  int64
		held      bool
	)
	take := func() {
		held = true
		_ = conn.SetWriteDeadline(s.writeDeadline(bdl))
		stopWatch = context.AfterFunc(ctx, func() {
			if context.Cause(ctx) == context.Canceled {
				_ = conn.SetWriteDeadline(time.Now())
			}
		})
		holdStart, outStart = time.Now(), c.bytesOut.Load()
	}
	give := func() {
		stopWatch()
		span.Encode += time.Since(holdStart)
		span.BytesOut += c.bytesOut.Load() - outStart
		s.releaseWrite()
		held = false
	}
	fw := &frameWriter{bw: s.bw, w: s.out, enc: s.enc, tag: tag, yield: func() error {
		give()
		waitStart := time.Now()
		err := s.resumeWrite(ctx)
		span.Queue += time.Since(waitStart)
		if err != nil {
			return err
		}
		take()
		return nil
	}}
	take()
	serr := writeBatch(fw, reqs, deadlineNanos)
	if serr != nil {
		serr = fmt.Errorf("fedrpc: send to %s: %w", c.addr, serr)
	} else if ferr := s.bw.Flush(); ferr != nil {
		serr = fmt.Errorf("fedrpc: flush to %s: %w", c.addr, ferr)
	} else {
		s.flushed()
	}
	if held {
		give()
	}
	return serr
}

// interrupt handles ctx dying while the call is on the wire: prefer a
// reply that already landed; otherwise grant deadline expiry a grace
// window for the worker's typed reply, then tear the session down and
// collect the teardown verdict.
func (c *Client) interrupt(ctx context.Context, s *session, call *pendingCall, budget time.Duration) callReply {
	select {
	case cr := <-call.done:
		return cr
	default:
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) && budget > 0 {
		grace := budget / 2
		if grace > time.Second {
			grace = time.Second
		}
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case cr := <-call.done:
			return cr
		case <-t.C:
		}
	}
	c.failSession(s, fmt.Errorf("fedrpc: exchange with %s interrupted: %w", c.addr, ctx.Err()))
	return <-call.done
}

// classify maps a transport-level failure onto the caller-facing error. If
// a racing Close already claimed the connection the I/O error it provoked
// is reported as ErrClosed — the caller raced Close and must see that, not
// a bare transport error. Likewise, when the caller's own context expired
// or was cancelled, the I/O error is just the mechanism by which the
// interruption surfaced: the caller sees a typed deadline/cancellation
// error with the transport detail attached.
func (c *Client) classify(ctx context.Context, err error) error {
	c.connMu.Lock()
	closed := c.closed
	c.connMu.Unlock()
	switch {
	case closed:
		return fmt.Errorf("fedrpc: call to %s: %w", c.addr, ErrClosed)
	case ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("fedrpc: call to %s: %w (%v)", c.addr, ErrDeadlineExceeded, err)
	case ctx != nil && errors.Is(ctx.Err(), context.Canceled):
		return fmt.Errorf("fedrpc: call to %s cancelled: %w (%v)", c.addr, ctx.Err(), err)
	}
	return err
}

// session returns the live session, redialing if the client is broken.
// Concurrent callers share one dial (the dialing latch); dialing happens
// outside connMu so Close stays prompt, and if Close won the race the
// fresh connection is discarded and ErrClosed returned.
func (c *Client) session(ctx context.Context) (*session, error) {
	for {
		c.connMu.Lock()
		if c.closed {
			c.connMu.Unlock()
			return nil, fmt.Errorf("fedrpc: call to %s: %w", c.addr, ErrClosed)
		}
		if c.sess != nil {
			s := c.sess
			c.connMu.Unlock()
			return s, nil
		}
		if ch := c.dialing; ch != nil {
			c.connMu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				// Someone else's dial proceeds; we just stop waiting.
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		c.dialing = ch
		c.connMu.Unlock()
		s, err := c.dialSession(ctx)
		c.connMu.Lock()
		c.dialing = nil
		c.connMu.Unlock()
		close(ch)
		return s, err
	}
}

// dialSession dials a fresh transport and installs it as the active
// session. The caller owns the dialing latch.
func (c *Client) dialSession(ctx context.Context) (*session, error) {
	conn, err := c.dialTransport(ctx)
	if err != nil {
		return nil, err
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("fedrpc: call to %s: %w", c.addr, ErrClosed)
	}
	s := c.newSession(conn)
	c.sess = s
	c.sessions[s] = struct{}{}
	c.connMu.Unlock()
	return s, nil
}

// failSession retires s from the client and tears it down: every call
// in flight on it fails with err, reserve waiters wake and retry on the
// successor. Safe to call from any goroutine; idempotent per session.
func (c *Client) failSession(s *session, err error) {
	c.connMu.Lock()
	if c.sess == s {
		c.sess = nil
	}
	delete(c.sessions, s)
	c.connMu.Unlock()
	s.teardown(err)
}

// record finalizes the span and reports the exchange into the registry:
// call/error/byte counters, per-request-type counters, phase histograms
// (successful exchanges only — failed ones have partial phases), the
// per-type total-latency histogram, the slow-RPC check, and the span ring.
func (c *Client) record(sp *obs.Span, reqs []Request, err error) {
	sp.Total = time.Since(sp.Start)
	c.reg.Counter("rpc.client.calls").Inc()
	for _, rq := range reqs {
		c.reg.Counter("rpc.client.requests." + rq.Type.String()).Inc()
	}
	c.reg.Counter("rpc.client.bytes_out").Add(sp.BytesOut)
	c.reg.Counter("rpc.client.bytes_in").Add(sp.BytesIn)
	if err != nil {
		sp.Err = err.Error()
		c.reg.Counter("rpc.client.errors").Inc()
	} else {
		c.reg.Histogram("rpc.client.phase.queue", obs.LatencyBuckets).Observe(sp.Queue.Seconds())
		c.reg.Histogram("rpc.client.phase.encode", obs.LatencyBuckets).Observe(sp.Encode.Seconds())
		c.reg.Histogram("rpc.client.phase.network", obs.LatencyBuckets).Observe(sp.Network.Seconds())
		c.reg.Histogram("rpc.client.phase.execute", obs.LatencyBuckets).Observe(sp.Execute.Seconds())
		c.reg.Histogram("rpc.client.phase.decode", obs.LatencyBuckets).Observe(sp.Decode.Seconds())
		if sp.ReqType != "" {
			c.reg.Histogram("rpc.client.call_seconds."+sp.ReqType, obs.LatencyBuckets).Observe(sp.Total.Seconds())
		}
	}
	if c.slowRPC > 0 && sp.Total >= c.slowRPC {
		c.reg.Counter("rpc.client.slow_calls").Inc()
		log.Printf("fedrpc: slow rpc threshold=%s %s", c.slowRPC, sp)
	}
	c.reg.RecordSpan(*sp)
}

// Broken reports whether the client currently has no live transport because
// an earlier exchange failed. The next Call (or Redial) reconnects.
func (c *Client) Broken() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.sess == nil && !c.closed
}

// Redial forces a fresh transport. The current session (if live) is
// detached rather than yanked: calls already in flight on it finish on the
// old connection, which closes itself once the last one drains, while the
// fresh connection serves everything new. Byte counters are preserved.
func (c *Client) Redial() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return fmt.Errorf("fedrpc: redial %s: %w", c.addr, ErrClosed)
	}
	old := c.sess
	c.sess = nil
	c.connMu.Unlock()
	if old != nil {
		old.detach()
	}
	if _, err := c.session(context.Background()); err != nil {
		if errors.Is(err, ErrClosed) {
			return fmt.Errorf("fedrpc: redial %s: %w", c.addr, ErrClosed)
		}
		return err
	}
	return nil
}

// CallOne sends a single request and returns its response, converting a
// per-request failure into an error.
func (c *Client) CallOne(req Request) (Response, error) {
	return c.CallOneCtx(context.Background(), req)
}

// CallOneCtx is CallOne with trace metadata from ctx (see CallCtx). A
// failed response with a known Code surfaces as the matching typed error
// (a worker-reported DEADLINE_EXCEEDED satisfies
// errors.Is(err, ErrDeadlineExceeded) exactly like a local expiry), so
// breaker and retry verdicts agree across the transport and typed-reply
// paths.
func (c *Client) CallOneCtx(ctx context.Context, req Request) (Response, error) {
	resps, err := c.CallCtx(ctx, req)
	if err != nil {
		return Response{}, err
	}
	if !resps[0].OK {
		return resps[0], ResponseError(c.addr, req.Type, resps[0])
	}
	return resps[0], nil
}

// BytesSent returns the total bytes written to this worker.
func (c *Client) BytesSent() int64 { return c.bytesOut.Load() }

// BytesReceived returns the total bytes read from this worker.
func (c *Client) BytesReceived() int64 { return c.bytesIn.Load() }

// Close terminates the connection. A closed client stays closed: unlike a
// broken one, it does not reconnect on the next Call (which then returns an
// error identifiable with errors.Is(err, ErrClosed)). Close is idempotent —
// including after a transport failure left the client Broken — and releases
// the underlying connections exactly once; repeated calls return nil.
//
// Close is prompt: it does not wait behind in-flight calls. Tearing the
// sessions down interrupts their I/O, and those calls report ErrClosed.
func (c *Client) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	all := make([]*session, 0, len(c.sessions))
	for s := range c.sessions {
		all = append(all, s)
	}
	c.sess = nil
	c.sessions = map[*session]struct{}{}
	c.connMu.Unlock()
	err := fmt.Errorf("fedrpc: call to %s: %w", c.addr, ErrClosed)
	for _, s := range all {
		s.teardown(err)
	}
	return nil
}

// --- session machinery ----------------------------------------------------

// reserve claims an in-flight window slot, waiting (FIFO-ish: woken
// waiters re-race) while the window is full, until ctx dies first. The
// fast path never touches ctx, so an already-cancelled context still wins
// a free slot — matching mutex semantics for callers that don't race
// cancellation. A *sessionDeadError means the session is gone and the call
// should retry on its successor.
func (s *session) reserve(ctx context.Context) error {
	s.mu.Lock()
	for {
		if s.dead {
			err := s.deadErr
			s.mu.Unlock()
			return &sessionDeadError{err: err}
		}
		if s.detached {
			s.mu.Unlock()
			return &sessionDeadError{err: errSessionDetached}
		}
		if s.active < s.c.window {
			s.active++
			s.mu.Unlock()
			return nil
		}
		w := make(chan struct{}, 1)
		s.waiters = append(s.waiters, w)
		s.mu.Unlock()
		select {
		case <-w:
		case <-ctx.Done():
			s.mu.Lock()
			s.dropWaiterLocked(w)
			s.mu.Unlock()
			// Wakes are broadcast (every waiter re-checks), so a wake this
			// waiter consumed — or will never consume — strands no slot.
			return ctx.Err()
		}
		s.mu.Lock()
	}
}

// unreserve returns a window slot claimed by reserve for a call that never
// registered (budget expired, cancelled waiting for the write token, or
// the session died underneath it). Registered calls release their slot
// through reply delivery or teardown instead.
func (s *session) unreserve() {
	s.mu.Lock()
	s.active--
	waiters := s.takeWaitersLocked()
	drained := s.detached && !s.dead && s.active == 0
	s.mu.Unlock()
	wakeAll(waiters)
	if drained {
		s.c.failSession(s, errSessionDetached)
	}
}

// acquireWrite takes the write token, or gives up when ctx dies first (the
// fast path never touches ctx, mirroring reserve).
func (s *session) acquireWrite(ctx context.Context) error {
	select {
	case s.writeTok <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.writeTok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// resumeWrite takes the write token back between the chunks of a batch
// already partly on the wire. Only an explicit cancellation gives up (the
// caller then tears the torn stream down); a deadline expiring meanwhile
// waits on, since every holder's write deadline bounds the wait.
func (s *session) resumeWrite(ctx context.Context) error {
	select {
	case s.writeTok <- struct{}{}:
		return nil
	case <-ctx.Done():
	}
	if context.Cause(ctx) == context.Canceled {
		return ctx.Err()
	}
	s.writeTok <- struct{}{}
	return nil
}

// releaseWrite returns the write token.
func (s *session) releaseWrite() { <-s.writeTok }

// register allocates the call's tag and enters it into the in-flight
// table. From here on exactly one of the reader or teardown will complete
// the call.
func (s *session) register() (*pendingCall, error) {
	s.mu.Lock()
	if s.dead {
		err := s.deadErr
		s.mu.Unlock()
		return nil, &sessionDeadError{err: err}
	}
	s.nextTag++
	call := &pendingCall{tag: s.nextTag, done: make(chan callReply, 1)}
	s.inflight[call.tag] = call
	s.mu.Unlock()
	return call, nil
}

// flushed marks one written batch as awaiting its reply and wakes the
// reader. Called after Flush succeeds, while still holding the write
// token, so the reader's decode window for a sole in-flight call starts at
// the moment its bytes left the buffer.
func (s *session) flushed() {
	s.mu.Lock()
	s.awaited++
	s.mu.Unlock()
	select {
	case s.work <- struct{}{}:
	default:
	}
}

// budgetDeadline is the latest moment a call's writes may run: its budget
// plus a short grace window from now. Zero (no budget) means none.
func budgetDeadline(budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget + min(budget/2, time.Second))
}

// writeDeadline is the deadline of one hold of a batch write, so a dead or
// wedged peer surfaces as a timeout error instead of hanging the writer
// forever: the I/O timeout from now — fresh for every hold, as on the
// server, so the waits between a bulk call's chunks do not count against
// it — tightened to the call's budget deadline bdl when it has one. Zero
// means none — set anyway, as a clear: a cancelled previous call's watchdog
// may have left a poison (past) deadline on this connection. Only write
// deadlines: the reader owns the read deadline.
func (s *session) writeDeadline(bdl time.Time) time.Time {
	var dl time.Time
	if d := s.c.ioTimeout; d > 0 {
		dl = time.Now().Add(d)
	}
	if !bdl.IsZero() && (dl.IsZero() || bdl.Before(dl)) {
		dl = bdl
	}
	return dl
}

// readLoop is the session's single reader: it sleeps while nothing is
// awaited (an idle connection keeps no outstanding read and no read
// deadline), then reads reply frames — interleaved across calls — and
// routes each completed reply to its call by echoed tag. Any decode
// failure or unknown tag is a stream desync the session cannot recover
// from: teardown fails every in-flight call and the reader exits.
func (s *session) readLoop() {
	for {
		s.mu.Lock()
		for s.awaited == 0 {
			if s.dead {
				s.mu.Unlock()
				return
			}
			if s.detached && s.active == 0 {
				s.mu.Unlock()
				s.c.failSession(s, errSessionDetached)
				return
			}
			s.mu.Unlock()
			<-s.work
			s.mu.Lock()
		}
		if s.dead {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		// The I/O timeout bounds the wait for the next frame while calls
		// are in flight; per-call budgets are enforced by their callers.
		if s.c.ioTimeout > 0 {
			_ = s.conn.SetReadDeadline(time.Now().Add(s.c.ioTimeout))
		} else {
			_ = s.conn.SetReadDeadline(time.Time{})
		}
		waitStart := s.c.readWait.Load()
		inStart := s.c.bytesIn.Load()
		frameStart := time.Now()
		tag, b, derr := s.rd.readFrame()
		if derr != nil {
			s.c.failSession(s, fmt.Errorf("fedrpc: receive from %s: %w", s.c.addr, derr))
			return
		}

		s.mu.Lock()
		call := s.inflight[tag]
		if call == nil {
			// Tags start at 1, so this also catches a zero (missing) tag.
			s.mu.Unlock()
			s.c.failSession(s, fmt.Errorf("%w: %s answered unknown call tag %d (duplicate, forged or untagged reply)",
				ErrDesync, s.c.addr, tag))
			return
		}
		// The frame's read belongs to the call it carries, whichever
		// call's frames the reader was busy with before it.
		call.in.readWait += time.Duration(s.c.readWait.Load() - waitStart)
		call.in.bytesIn += s.c.bytesIn.Load() - inStart
		call.in.decodeWall += time.Since(frameStart)
		if b == nil {
			s.mu.Unlock()
			continue
		}
		delete(s.inflight, tag)
		s.active--
		s.awaited--
		waiters := s.takeWaitersLocked()
		drained := s.detached && s.active == 0
		s.mu.Unlock()
		wakeAll(waiters)
		cr := call.in
		cr.resps, cr.execNanos = b.env.responses(b.data), b.env.ExecNanos
		call.done <- cr
		if drained {
			s.c.failSession(s, errSessionDetached)
			return
		}
	}
}

// detach retires the session from new calls while letting in-flight ones
// drain on the old connection; the last one out tears it down. An idle
// session tears down immediately.
func (s *session) detach() {
	s.mu.Lock()
	if s.dead || s.detached {
		s.mu.Unlock()
		return
	}
	s.detached = true
	idle := s.active == 0
	waiters := s.takeWaitersLocked()
	s.mu.Unlock()
	wakeAll(waiters)
	select {
	case s.work <- struct{}{}:
	default:
	}
	if idle {
		s.c.failSession(s, errSessionDetached)
	}
}

// teardown kills the session: the connection closes, every in-flight call
// completes with err, every reserve waiter wakes (to observe dead and
// retry elsewhere), and the reader exits. Idempotent; never touches
// Client.connMu (failSession layers that on top).
func (s *session) teardown(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	s.deadErr = err
	calls := s.inflight
	s.inflight = map[uint64]*pendingCall{}
	s.active -= len(calls)
	s.awaited = 0
	waiters := s.takeWaitersLocked()
	s.mu.Unlock()
	s.conn.Close()
	wakeAll(waiters)
	for _, call := range calls {
		call.done <- callReply{err: err}
	}
	select {
	case s.work <- struct{}{}:
	default:
	}
}

// takeWaitersLocked empties the waiter list for a broadcast wake. Callers
// hold s.mu and must send only after releasing it.
func (s *session) takeWaitersLocked() []chan struct{} {
	w := s.waiters
	s.waiters = nil
	return w
}

// dropWaiterLocked removes w from the waiter list if still queued. Callers
// hold s.mu.
func (s *session) dropWaiterLocked(w chan struct{}) {
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// wakeAll sends one non-blocking wake to each waiter channel (each is
// buffered, cap 1, so the signal is never lost).
func wakeAll(waiters []chan struct{}) {
	for _, w := range waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingReader counts bytes and accumulates the time spent blocked in
// Read — the reader goroutine slices the cumulative total per reply to
// split latency into network wait vs. decode CPU.
type countingReader struct {
	r    interface{ Read([]byte) (int, error) }
	n    *atomic.Int64
	wait *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.r.Read(p)
	c.wait.Add(int64(time.Since(start)))
	c.n.Add(int64(n))
	return n, err
}
