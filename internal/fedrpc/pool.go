package fedrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"exdra/internal/obs"
)

// ErrPoolClosed marks checkouts from a pool after Close. Like ErrClosed on
// a single client, a closed pool stays closed for good.
var ErrPoolClosed = errors.New("fedrpc: pool closed")

// Pool is a bounded set of clients to one worker address with
// checkout/checkin semantics. It exists so a multi-session coordinator
// service stops serializing independent sessions behind one client's
// exchange lock: each checkout leases a connection for the duration of its
// exchange, up to Size connections per worker.
//
// Connections are dialed lazily and never beyond Size, but a connection is
// not exclusively owned: up to W checkouts (Client.WindowCap) multiplex
// onto it — their tagged exchanges interleave on the wire — before the
// pool dials another connection. A checkout beyond Size×W waits (FIFO) for a checkin, giving
// natural backpressure that pairs with the service's admission control.
// Broken clients are handed out as-is — fedrpc.Client transparently redials
// on its next Call, so the pool needs no health bookkeeping of its own.
//
// Metrics: the pool reports into the serve.pool.* series (the coordinator
// service's namespace — pools are its substrate even when used standalone):
// serve.pool.dials / serve.pool.checkouts / serve.pool.waits counters and
// the serve.pool.in_use gauge (leases, not connections).
type Pool struct {
	addr string
	opts Options
	size int
	reg  *obs.Registry

	mu      sync.Mutex
	idle    []*Client       // zero-lease clients ready for checkout; guarded by mu
	all     []*Client       // every client ever dialed (byte counters); guarded by mu
	leases  map[*Client]int // live checkouts per client; guarded by mu
	dialing int             // connection slots reserved across a dial; guarded by mu
	out     int             // total live leases; guarded by mu
	waiters []chan *Client  // FIFO checkout queue; guarded by mu
	closed  bool            // guarded by mu
}

// NewPool creates a pool of up to size clients for addr. Size below 1 is
// clamped to 1: one connection per address.
func NewPool(addr string, size int, opts Options) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{addr: addr, opts: opts, size: size, reg: opts.metrics(), leases: map[*Client]int{}}
}

// Addr returns the worker address this pool connects to.
func (p *Pool) Addr() string { return p.addr }

// Size returns the connection bound.
func (p *Pool) Size() int { return p.size }

// Get checks a client out of the pool: an idle one if available, a lease
// multiplexed onto a live connection with window headroom, a
// freshly dialed one while fewer than Size exist, otherwise it waits until
// a checkin (FIFO) or ctx dies. The caller must return the client with Put
// when its exchange completes — broken or not.
func (p *Pool) Get(ctx context.Context) (*Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("fedrpc: pool %s: %w", p.addr, ErrPoolClosed)
		}
		if n := len(p.idle); n > 0 {
			cl := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.leases[cl]++
			p.out++
			p.mu.Unlock()
			p.reg.Counter("serve.pool.checkouts").Inc()
			p.reg.Gauge("serve.pool.in_use").Add(1)
			return cl, nil
		}
		if cl := p.leastLoadedLocked(); cl != nil {
			// Multiplex: the connection already carries exchanges, but its
			// pipelining window has headroom — cheaper than a fresh dial.
			p.leases[cl]++
			p.out++
			p.mu.Unlock()
			p.reg.Counter("serve.pool.checkouts").Inc()
			p.reg.Gauge("serve.pool.in_use").Add(1)
			return cl, nil
		}
		if len(p.all)+p.dialing < p.size {
			p.dialing++ // reserve the connection slot across the dial
			p.mu.Unlock()
			return p.dialSlot()
		}
		// Every connection is leased to capacity: queue for a checkin.
		w := make(chan *Client, 1)
		p.waiters = append(p.waiters, w)
		p.mu.Unlock()
		p.reg.Counter("serve.pool.waits").Inc()
		select {
		case cl := <-w:
			if cl == nil {
				continue // a slot freed without a client (failed dial, or Close)
			}
			// Direct handoff from Put: the lease and in_use accounting
			// transferred with the client.
			p.reg.Counter("serve.pool.checkouts").Inc()
			return cl, nil
		case <-ctx.Done():
			p.mu.Lock()
			removed := p.removeWaiterLocked(w)
			p.mu.Unlock()
			if !removed {
				p.reclaim(w)
			}
			return nil, fmt.Errorf("fedrpc: pool %s checkout: %w", p.addr, ctx.Err())
		}
	}
}

// reclaim returns a handoff that raced the waiter's cancellation to the
// pool. The cancelled waiter never used the client, so this is not a
// checkout: no serve.pool.checkouts increment — Put alone rebalances the
// lease the handoff carried over. The receive blocks: whoever dequeued w
// (Put, a failed dial, Close) sends on it or closes it right after
// releasing p.mu, and a non-blocking receive in that window lost the lease.
func (p *Pool) reclaim(w chan *Client) {
	if cl := <-w; cl != nil {
		p.Put(cl)
	}
}

// leastLoadedLocked picks the live client with the most pipelining-window
// headroom (fewest leases below its WindowCap), or nil when none has room.
// Callers hold p.mu.
func (p *Pool) leastLoadedLocked() *Client {
	var best *Client
	spare := 0
	for _, cl := range p.all {
		n := p.leases[cl]
		if n <= 0 {
			continue // idle clients are claimed through p.idle
		}
		if s := cl.WindowCap() - n; s > spare {
			best, spare = cl, s
		}
	}
	return best
}

// dialSlot fills a reserved connection slot with a fresh client. On failure
// the slot is released and one waiter is woken so it can claim it.
func (p *Pool) dialSlot() (*Client, error) {
	cl, err := Dial(p.addr, p.opts)
	p.mu.Lock()
	p.dialing--
	if err != nil {
		w := p.popWaiterLocked()
		p.mu.Unlock()
		if w != nil {
			w <- nil // wake to retry against the freed slot
		}
		return nil, err
	}
	if p.closed {
		p.mu.Unlock()
		cl.Close()
		return nil, fmt.Errorf("fedrpc: pool %s: %w", p.addr, ErrPoolClosed)
	}
	p.all = append(p.all, cl)
	p.leases[cl] = 1
	p.out++
	p.mu.Unlock()
	p.reg.Counter("serve.pool.dials").Inc()
	p.reg.Counter("serve.pool.checkouts").Inc()
	p.reg.Gauge("serve.pool.in_use").Add(1)
	return cl, nil
}

// Put checks a lease back in. If a waiter is queued the client is handed
// straight over (the lease transfers with it); otherwise the lease is
// released, and a client whose last lease drops goes idle. Putting a broken
// client back is fine — its next user redials.
func (p *Pool) Put(cl *Client) {
	if cl == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return // Close already closed every client, including this one
	}
	w := p.popWaiterLocked()
	if w == nil {
		p.leases[cl]--
		p.out--
		if p.leases[cl] <= 0 {
			delete(p.leases, cl)
			p.idle = append(p.idle, cl)
		}
	}
	p.mu.Unlock()
	if w != nil {
		w <- cl
		return
	}
	p.reg.Gauge("serve.pool.in_use").Add(-1)
}

// popWaiterLocked dequeues the oldest waiter, or nil. Callers hold p.mu and
// must send on the channel only after releasing it.
func (p *Pool) popWaiterLocked() chan *Client {
	if len(p.waiters) == 0 {
		return nil
	}
	w := p.waiters[0]
	p.waiters = p.waiters[1:]
	return w
}

// removeWaiterLocked drops w from the queue, reporting whether it was still
// queued (false means a handoff already claimed it). Callers hold p.mu.
func (p *Pool) removeWaiterLocked(w chan *Client) bool {
	for i, q := range p.waiters {
		if q == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// PoolStats is a point-in-time view of a pool's connection accounting.
type PoolStats struct {
	// Conns is the number of live dialed connections.
	Conns int
	// Idle is the number of checked-in clients ready for checkout.
	Idle int
	// InUse is the number of live checkout leases (with pipelining, several
	// can share one connection).
	InUse int
	// Waiting is the number of checkouts queued behind a full pool.
	Waiting int
}

// Stats returns the pool's current connection accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Conns: len(p.all), Idle: len(p.idle), InUse: p.out, Waiting: len(p.waiters)}
}

// BytesSent returns the total bytes written across all pooled connections,
// including retired transports (client counters survive redials).
func (p *Pool) BytesSent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, cl := range p.all {
		n += cl.BytesSent()
	}
	return n
}

// BytesReceived returns the total bytes read across all pooled connections.
func (p *Pool) BytesReceived() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, cl := range p.all {
		n += cl.BytesReceived()
	}
	return n
}

// Close closes every pooled client — checked out or idle; Client.Close is
// prompt and interrupts in-flight exchanges — and fails all queued
// checkouts with ErrPoolClosed. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	all := p.all
	ws := p.waiters
	out := p.out
	p.all, p.idle, p.waiters = nil, nil, nil
	p.leases, p.out = map[*Client]int{}, 0
	p.mu.Unlock()
	for _, w := range ws {
		close(w) // receivers observe nil, loop, and see the closed pool
	}
	for _, cl := range all {
		cl.Close()
	}
	if out > 0 {
		p.reg.Gauge("serve.pool.in_use").Add(-int64(out))
	}
}
