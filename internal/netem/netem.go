// Package netem emulates network conditions on top of net.Conn, standing in
// for the paper's physical LAN (two racks, 10 Gb Ethernet) and WAN
// (Copenhagen–Graz, ~35–60 ms RTT, ~1.4–2 MB/s) environments. Delays are
// injected at the connection layer, so the federated protocol code paths
// (serialization, batching, parallel RPCs) are exercised unchanged.
//
// Beyond link shaping, the package injects deterministic transport faults —
// connection resets after a byte threshold, one-shot connection drops, and
// write-stall windows — so the recovery paths of the federation layer
// (fedrpc redial, coordinator retry) are exercised by real connections in
// tests instead of being hand-waved.
package netem

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"exdra/internal/obs"
)

// Config describes an emulated link. The zero value emulates a perfect link
// (no added latency, unlimited bandwidth, no faults).
type Config struct {
	// RTT is the round-trip latency; each direction is charged RTT/2 per
	// message burst.
	RTT time.Duration
	// BandwidthBps limits throughput in bytes per second; zero means
	// unlimited.
	BandwidthBps float64
	// Faults points at shared fault-injection state (NewFaults); nil
	// disables injection. The state is shared deliberately: every
	// connection wrapped with the same *Faults draws from one seeded
	// schedule, so plans like "reset every connection once" keep holding
	// across redials.
	Faults *Faults
}

// LAN returns the paper's local-area configuration (no artificial delay).
func LAN() Config { return Config{} }

// WAN returns a configuration matching the paper's wide-area measurements:
// ~45 ms RTT and ~1.7 MB/s transfer bandwidth (midpoints of the reported
// 35–60 ms and 1.4–2 MB/s ranges).
func WAN() Config {
	return Config{RTT: 45 * time.Millisecond, BandwidthBps: 1.7e6}
}

// Enabled reports whether the config shapes or faults the link.
func (c Config) Enabled() bool { return c.RTT > 0 || c.BandwidthBps > 0 || c.Faults != nil }

// ErrInjectedReset marks a fault-injected connection teardown (the emulated
// peer reset the connection after the configured byte threshold).
var ErrInjectedReset = errors.New("netem: injected connection reset")

// ErrInjectedDrop marks a fault-injected one-shot drop: the connection was
// established and then immediately killed.
var ErrInjectedDrop = errors.New("netem: injected connection drop")

// ErrInjectedTruncation marks a fault-injected mid-stream truncation: the
// connection delivered a prefix of a message (for the binary framing,
// typically a partial float slab) and was then torn down, so the peer
// observes a short read in the middle of a frame rather than at a message
// boundary.
var ErrInjectedTruncation = errors.New("netem: injected mid-stream truncation")

// FaultConfig describes a deterministic fault schedule. All faults are
// driven by Seed, so a test run is reproducible.
type FaultConfig struct {
	// Seed drives the schedule's RNG (reset-threshold jitter).
	Seed int64
	// ConnResets is the total number of connection resets to inject. An
	// affected connection is torn down once it has written
	// ResetAfterBytes bytes (jittered by ResetJitter); the connection's
	// I/O then fails with ErrInjectedReset. Redialed connections start a
	// fresh byte count and draw from the remaining reset budget.
	ConnResets int
	// ResetAfterBytes is the per-connection written-byte threshold that
	// triggers a reset; required (>0) for ConnResets to take effect.
	ResetAfterBytes int64
	// ResetJitter varies each connection's threshold by up to this
	// fraction of ResetAfterBytes in either direction (e.g. 0.5 draws
	// from [0.5x, 1.5x]). Zero keeps the threshold exact.
	ResetJitter float64
	// ResetPerAddr limits resets to one per remote address. Without it, a
	// reconnecting peer can burn the whole reset budget on one address
	// (every redialed connection crosses the threshold again); with it,
	// plans like "reset the connection to every worker exactly once"
	// hold regardless of retry interleaving.
	ResetPerAddr bool
	// Drops kills the next N wrapped connections immediately after
	// establishment (one-shot connect-then-die drops); their first I/O
	// fails with ErrInjectedDrop.
	Drops int
	// Stalls freezes one write of the next N wrapped connections for
	// StallFor before proceeding — a stall window long enough to trip the
	// caller's I/O deadline when StallFor exceeds it. By default the
	// connection's first write stalls; StallAfterBytes moves the window
	// later into the stream.
	Stalls int
	// StallFor is the stall-window duration; required (>0) for Stalls to
	// take effect.
	StallFor time.Duration
	// StallAfterBytes arms the stall only once the connection has already
	// written this many bytes, so the freeze lands mid-batch (inside the
	// framed payload) instead of on the handshake prelude that every
	// connection writes first. Zero keeps the legacy first-write stall.
	StallAfterBytes int64
	// StallThenReset tears the connection down with ErrInjectedReset when
	// the stall window elapses instead of letting the write proceed — the
	// "peer froze, then the kernel gave up on it" failure, which exercises
	// both the caller's deadline discipline (during the stall) and its
	// redial path (after).
	StallThenReset bool
	// Truncations is the number of mid-stream truncations to inject. An
	// affected connection delivers exactly TruncateAfterBytes bytes and is
	// then torn down mid-frame; its writer fails with
	// ErrInjectedTruncation and the peer observes a short read inside a
	// message.
	Truncations int
	// TruncateAfterBytes is the written-byte offset at which an affected
	// connection is cut; required (>0) for Truncations to take effect.
	TruncateAfterBytes int64
	// CorruptBytes is the number of single-byte corruptions to inject.
	// An affected connection XORs one seeded bit into the byte at stream
	// offset CorruptAfterBytes and otherwise proceeds normally — the
	// silent-corruption fault that only checksums (or a lucky decode
	// error) can catch.
	CorruptBytes int
	// CorruptAfterBytes is the stream offset of the byte to corrupt.
	// Point it past the frame header to land inside a payload slab.
	CorruptAfterBytes int64
}

// FaultStats counts the faults injected so far. Drops and Stalls are
// counted when a connection is assigned the fault (the assignment alone
// already perturbs the schedule); Resets, StallResets, Truncations and
// Corruptions are counted only when the fault actually fires on the wire,
// so chaos tests can assert the byzantine path was genuinely exercised.
type FaultStats struct {
	Resets      int
	Drops       int
	Stalls      int
	StallResets int
	Truncations int
	Corruptions int
}

// Faults is the shared, mutable state of one fault schedule. Create it with
// NewFaults and place the same pointer in every Config that should draw
// from the schedule.
type Faults struct {
	mu           sync.Mutex
	cfg          FaultConfig     // immutable after NewFaults
	rng          *rand.Rand      // guarded by mu
	resetsLeft   int             // guarded by mu
	dropsLeft    int             // guarded by mu
	stallsLeft   int             // guarded by mu
	truncsLeft   int             // guarded by mu
	corruptsLeft int             // guarded by mu
	resetAddrs   map[string]bool // addresses already reset (ResetPerAddr); guarded by mu
	stats        FaultStats      // guarded by mu
}

// NewFaults compiles a fault schedule from cfg.
func NewFaults(cfg FaultConfig) *Faults {
	return &Faults{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		resetsLeft:   cfg.ConnResets,
		dropsLeft:    cfg.Drops,
		stallsLeft:   cfg.Stalls,
		truncsLeft:   cfg.Truncations,
		corruptsLeft: cfg.CorruptBytes,
		resetAddrs:   map[string]bool{},
	}
}

// Stats returns how many faults have been injected so far. Tests assert on
// it so a "recovery" test that never actually hit a fault fails loudly.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// connPlan is one connection's share of the fault schedule, drawn at wrap
// time. Zero-valued fields mean "no such fault planned".
type connPlan struct {
	drop        bool
	resetAt     int64 // written-byte reset threshold (0 = none)
	stall       time.Duration
	stallAfter  int64 // bytes written before the stall arms
	stallReset  bool  // tear the conn down when the stall elapses
	truncateAt  int64 // written-byte truncation offset (0 = none)
	corrupt     bool
	corruptAt   int64 // stream offset of the byte to corrupt
	corruptMask byte  // nonzero XOR mask for the corrupted byte
}

// planConn draws one connection's fault plan from the schedule. Resets
// keep their legacy independent draw (their jittered threshold coexists
// with anything). The byzantine classes — truncation, corruption, stall —
// are assigned at most one per connection, chosen by the seeded RNG among
// the classes with remaining budget: stacking them on one connection would
// just let the earliest-firing fault mask the rest, and a chaos config
// wants every budgeted class to actually reach the wire.
func (f *Faults) planConn() connPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	var pl connPlan
	if f.dropsLeft > 0 {
		f.dropsLeft--
		f.stats.Drops++
		obs.Default().Counter("netem.faults.drops").Inc()
		pl.drop = true
		return pl
	}
	if f.resetsLeft > 0 && f.cfg.ResetAfterBytes > 0 {
		pl.resetAt = f.cfg.ResetAfterBytes
		if j := f.cfg.ResetJitter; j > 0 {
			pl.resetAt += int64(float64(f.cfg.ResetAfterBytes) * j * (f.rng.Float64()*2 - 1))
			if pl.resetAt < 1 {
				pl.resetAt = 1
			}
		}
	}
	const (
		classTruncate = iota
		classCorrupt
		classStall
	)
	var classes []int
	if f.truncsLeft > 0 && f.cfg.TruncateAfterBytes > 0 {
		classes = append(classes, classTruncate)
	}
	if f.corruptsLeft > 0 {
		classes = append(classes, classCorrupt)
	}
	if f.stallsLeft > 0 && f.cfg.StallFor > 0 {
		classes = append(classes, classStall)
	}
	if len(classes) == 0 {
		return pl
	}
	switch classes[f.rng.Intn(len(classes))] {
	case classTruncate:
		f.truncsLeft--
		pl.truncateAt = f.cfg.TruncateAfterBytes
	case classCorrupt:
		f.corruptsLeft--
		pl.corrupt = true
		pl.corruptAt = f.cfg.CorruptAfterBytes
		pl.corruptMask = 1 << uint(f.rng.Intn(8))
	case classStall:
		f.stallsLeft--
		f.stats.Stalls++
		obs.Default().Counter("netem.faults.stalls").Inc()
		pl.stall = f.cfg.StallFor
		pl.stallAfter = f.cfg.StallAfterBytes
		pl.stallReset = f.cfg.StallThenReset
	}
	return pl
}

// noteTruncation records a truncation that actually fired.
func (f *Faults) noteTruncation() {
	f.mu.Lock()
	f.stats.Truncations++
	f.mu.Unlock()
	obs.Default().Counter("netem.faults.truncations").Inc()
}

// noteCorruption records a corruption that actually fired.
func (f *Faults) noteCorruption() {
	f.mu.Lock()
	f.stats.Corruptions++
	f.mu.Unlock()
	obs.Default().Counter("netem.faults.corruptions").Inc()
}

// noteStallReset records a stall window that ended in a teardown.
func (f *Faults) noteStallReset() {
	f.mu.Lock()
	f.stats.StallResets++
	f.mu.Unlock()
	obs.Default().Counter("netem.faults.stall_resets").Inc()
}

// takeReset consumes one reset token when a connection to addr crosses its
// threshold. It can return false when concurrent connections raced for the
// last token, or when ResetPerAddr is set and addr was already reset; the
// loser carries on un-reset.
func (f *Faults) takeReset(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resetsLeft <= 0 {
		return false
	}
	if f.cfg.ResetPerAddr {
		if f.resetAddrs[addr] {
			return false
		}
		f.resetAddrs[addr] = true
	}
	f.resetsLeft--
	f.stats.Resets++
	obs.Default().Counter("netem.faults.resets").Inc()
	return true
}

// conn wraps a net.Conn, delaying writes to model one-way latency plus
// serialization time at the configured bandwidth, and injecting the faults
// planned for it.
type conn struct {
	net.Conn
	cfg Config

	closeOnce sync.Once
	closed    chan struct{}

	mu sync.Mutex
	// nextFree is the emulated time at which the link becomes free again;
	// a write completing at time t makes the link busy until t + len/bw.
	// Guarded by mu.
	nextFree time.Time
	// lastWrite tracks burst boundaries: a write more than burstGap after
	// the previous one returned is a new message burst and pays one-way
	// latency. Guarded by mu.
	lastWrite time.Time
	// wdeadline mirrors the most recent SetDeadline/SetWriteDeadline so
	// the emulated delay can be cut short when the caller's deadline
	// expires first. Guarded by mu.
	wdeadline time.Time
	// written counts bytes attempted through Write, for the reset
	// threshold. Guarded by mu.
	written int64
	// resetAt is this connection's planned reset threshold (0 = none).
	// Guarded by mu.
	resetAt int64
	// stall is the pending one-shot stall window. Guarded by mu.
	stall time.Duration
	// stallAfter delays the stall until this many bytes have been written.
	// Guarded by mu.
	stallAfter int64
	// stallReset tears the conn down when the stall window elapses.
	// Guarded by mu.
	stallReset bool
	// truncateAt is the planned mid-stream truncation offset (0 = none).
	// Guarded by mu.
	truncateAt int64
	// corruptArmed/corruptAt/corruptMask describe the planned single-byte
	// corruption; armed distinguishes offset 0 from "none". Guarded by mu.
	corruptArmed bool
	corruptAt    int64
	corruptMask  byte
	// broken is the sticky error after an injected fault killed the conn.
	// Guarded by mu.
	broken error
	// late is a running estimate of how much later than asked a delay
	// hands control back to the writer, the wake-up lateness that Write
	// discounts from the one-way latency. Guarded by mu.
	late time.Duration
}

// burstGap separates message bursts for latency accounting. Writes closer
// together than this are treated as one burst (e.g. a single RPC flushed in
// several chunks) and pay latency only once.
const burstGap = 2 * time.Millisecond

// Wrap returns c with the emulated link characteristics applied to writes.
// A zero config returns c unchanged.
func Wrap(c net.Conn, cfg Config) net.Conn {
	if !cfg.Enabled() {
		return c
	}
	w := &conn{Conn: c, cfg: cfg, closed: make(chan struct{})}
	if f := cfg.Faults; f != nil {
		pl := f.planConn()
		w.resetAt = pl.resetAt
		w.stall, w.stallAfter, w.stallReset = pl.stall, pl.stallAfter, pl.stallReset
		w.truncateAt = pl.truncateAt
		w.corruptArmed, w.corruptAt, w.corruptMask = pl.corrupt, pl.corruptAt, pl.corruptMask
		if pl.drop {
			w.broken = ErrInjectedDrop
			c.Close()
		}
	}
	return w
}

// Write delays the underlying write to model the emulated link and injects
// planned faults. The delay is interruptible: Close and an expired write
// deadline cut it short, so shutdown and timeouts stay prompt even under
// heavy WAN emulation. Deadline discipline otherwise belongs to the
// protocol endpoints (fedrpc client/server), which call SetDeadline through
// this wrapper.
//
//lint:ignore netdeadline shaping shim; deadlines are armed by the fedrpc endpoints and honored by the interruptible delay
func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if err := c.broken; err != nil {
		c.mu.Unlock()
		return 0, c.opErr("write", err)
	}
	now := time.Now()
	newBurst := now.Sub(c.lastWrite) > burstGap
	var wait time.Duration
	if c.cfg.RTT > 0 && newBurst {
		// Discount the expected wake-up lateness, which the delay adds
		// back, by at most a tenth, so a box too loaded to wake up on
		// time still shows a slow link rather than hiding it.
		oneWay := c.cfg.RTT / 2
		wait += oneWay - min(c.late, oneWay/10)
	}
	if c.cfg.BandwidthBps > 0 {
		// A new burst finds the link idle. Within a burst the link keeps
		// up to burstGap of backlog, as a socket buffer would: the late
		// wake-up of the previous write's delay is not idle link time, so
		// a sender that writes in pieces gets the same bandwidth as one
		// that writes the whole message at once.
		floor := now
		if !newBurst {
			floor = now.Add(-burstGap)
		}
		if c.nextFree.Before(floor) {
			c.nextFree = floor
		}
		busy := time.Duration(float64(len(p)) / c.cfg.BandwidthBps * float64(time.Second))
		c.nextFree = c.nextFree.Add(busy)
		if d := c.nextFree.Sub(now); d > wait {
			wait = d
		}
	}
	// A planned stall window applies once, on top of the shaping delay —
	// but only once the stream has advanced past StallAfterBytes, so a
	// mid-batch stall skips the handshake prelude and lands inside a
	// framed payload.
	var stallReset bool
	if c.stall > 0 && c.written >= c.stallAfter {
		wait += c.stall
		c.stall = 0
		stallReset = c.stallReset
	}
	c.lastWrite = now.Add(wait)
	deadline := c.wdeadline
	c.mu.Unlock()
	if wait > 0 {
		if err := c.delay(wait, deadline); err != nil {
			return 0, err
		}
		// The burst continues from when the caller got control back,
		// however late the timer woke it.
		c.mu.Lock()
		c.lastWrite = time.Now()
		c.mu.Unlock()
	}
	if stallReset {
		// The stall window elapsed without the caller's deadline firing;
		// now the emulated peer resets the connection.
		c.mu.Lock()
		c.broken = ErrInjectedReset
		c.mu.Unlock()
		c.cfg.Faults.noteStallReset()
		c.Conn.Close()
		return 0, c.opErr("write", ErrInjectedReset)
	}
	// Corruption first: it leaves the connection alive, so a truncation
	// planned at a later offset of the same write still gets its turn.
	p = c.maybeCorrupt(p)
	if n, err, handled := c.maybeTruncate(p); handled {
		return n, err
	}
	if err := c.maybeReset(len(p)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// maybeTruncate cuts the connection mid-write when the planned truncation
// offset falls inside p: the prefix up to the offset is delivered, the
// transport is closed, and the caller sees ErrInjectedTruncation. The peer
// observes a short read inside a frame — for the binary framing, typically
// a partial float slab.
//
//lint:ignore netdeadline fault-injection shim; the partial write runs under whatever deadline the caller armed on the wrapped conn
func (c *conn) maybeTruncate(p []byte) (int, error, bool) {
	c.mu.Lock()
	if c.truncateAt <= 0 || c.written+int64(len(p)) <= c.truncateAt {
		c.mu.Unlock()
		return 0, nil, false
	}
	keep := c.truncateAt - c.written
	if keep < 0 {
		keep = 0
	}
	c.truncateAt = 0
	c.broken = ErrInjectedTruncation
	c.mu.Unlock()
	c.cfg.Faults.noteTruncation()
	n := 0
	if keep > 0 {
		n, _ = c.Conn.Write(p[:keep])
	}
	c.Conn.Close()
	return n, c.opErr("write", ErrInjectedTruncation), true
}

// maybeCorrupt flips one seeded bit of the byte at the planned stream
// offset and lets the write proceed — the connection stays healthy, only
// the data lies. The caller's buffer is never mutated; the corruption
// happens on a copy.
func (c *conn) maybeCorrupt(p []byte) []byte {
	c.mu.Lock()
	if !c.corruptArmed || c.written+int64(len(p)) <= c.corruptAt || len(p) == 0 {
		c.mu.Unlock()
		return p
	}
	idx := c.corruptAt - c.written
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(len(p)) {
		idx = int64(len(p)) - 1
	}
	mask := c.corruptMask
	c.corruptArmed = false
	c.mu.Unlock()
	c.cfg.Faults.noteCorruption()
	q := make([]byte, len(p))
	copy(q, p)
	q[idx] ^= mask
	return q
}

// maybeReset accounts n attempted bytes and tears the connection down when
// the planned reset threshold is crossed and the schedule still has a reset
// token.
func (c *conn) maybeReset(n int) error {
	c.mu.Lock()
	c.written += int64(n)
	tripped := c.resetAt > 0 && c.written >= c.resetAt
	if tripped {
		c.resetAt = 0 // one reset attempt per connection
	}
	c.mu.Unlock()
	if !tripped || !c.cfg.Faults.takeReset(remoteKey(c.Conn)) {
		return nil
	}
	c.mu.Lock()
	c.broken = ErrInjectedReset
	c.mu.Unlock()
	// Kill the transport so the peer observes the reset too.
	c.Conn.Close()
	return c.opErr("write", ErrInjectedReset)
}

// delay blocks for d, returning early when the connection is closed or the
// caller's write deadline expires first: an emulated WAN delay must never
// outlive the deadline discipline of the endpoints.
func (c *conn) delay(d time.Duration, deadline time.Time) error {
	if !deadline.IsZero() {
		if remain := time.Until(deadline); remain < d {
			// The deadline expires mid-delay: wait only that long, then
			// report the timeout the caller armed.
			if remain > 0 {
				t := time.NewTimer(remain)
				defer t.Stop()
				select {
				case <-t.C:
				case <-c.closed:
					return c.opErr("write", net.ErrClosed)
				}
			}
			return c.opErr("write", os.ErrDeadlineExceeded)
		}
	}
	start := time.Now()
	if coarse := d - preciseTail; coarse > 0 {
		t := time.NewTimer(coarse)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
			return c.opErr("write", net.ErrClosed)
		}
	}
	sleepUntil(start.Add(d))
	// Fold the observed lateness into the estimate with weight 1/2: the
	// estimate starts at zero on every connection and must settle within
	// a few round trips.
	late := max(time.Since(start)-d, 0)
	c.mu.Lock()
	c.late += (late - c.late) / 2
	c.mu.Unlock()
	return nil
}

// preciseTail is the end of a delay that sleepUntil waits out instead of an
// interruptible runtime timer. An idle Go process wakes for a timer only at
// its next whole millisecond (the poller waits in milliseconds), up to
// ~1.2 ms late, which no discount under a tenth of a 5 ms delay can move;
// the tail is long enough to cover that. Close does not cut the tail short.
const preciseTail = 2 * time.Millisecond

// sleepUntil blocks until t. This default waits on a runtime timer, so it
// keeps the timer's lateness; on Linux sleep_linux.go replaces it with a
// sleep that wakes on time.
var sleepUntil = func(t time.Time) {
	timer := time.NewTimer(time.Until(t))
	<-timer.C
}

// remoteKey identifies the peer for per-address fault accounting: the
// dialer's view of a worker ("ip:port" of the listener) is stable across
// redials, which is exactly what ResetPerAddr needs.
func remoteKey(c net.Conn) string {
	if a := c.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

func (c *conn) opErr(op string, err error) error {
	return &net.OpError{Op: op, Net: "netem", Addr: c.Conn.RemoteAddr(), Err: err}
}

// Read reads from the underlying connection. Once an injected fault has
// killed the connection, a failed read reports that fault rather than the
// closed-connection error its teardown left behind, so both halves of the
// connection fail with the same typed cause.
//
//lint:ignore netdeadline shaping shim; the read deadline belongs to the fedrpc endpoints, which set it through this wrapper
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.mu.Lock()
		broken := c.broken
		c.mu.Unlock()
		if broken != nil {
			err = c.opErr("read", broken)
		}
	}
	return n, err
}

// Close interrupts any in-flight emulated delay and closes the underlying
// connection.
func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// SetDeadline mirrors the write deadline for the emulated delay and
// forwards to the underlying connection.
func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetWriteDeadline mirrors the deadline for the emulated delay and forwards
// to the underlying connection.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// Listener wraps accepted connections with the emulated link.
type Listener struct {
	net.Listener
	cfg Config
}

// WrapListener returns l with every accepted connection wrapped in cfg.
func WrapListener(l net.Listener, cfg Config) net.Listener {
	if !cfg.Enabled() {
		return l
	}
	return &Listener{Listener: l, cfg: cfg}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(c, l.cfg), nil
}
