package federated

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// HealthPolicy configures the coordinator's periodic liveness probing.
// Probing serves two purposes: dead workers are marked unhealthy
// (WorkerHealth) before the next federated operation trips over them, and
// — with recovery enabled — a worker that comes back restarted is detected
// and proactively repaired between operations instead of on the critical
// path of the next one.
type HealthPolicy struct {
	// Interval is the pause between probe rounds. Zero or negative
	// disables probing (StartHealth becomes a no-op).
	Interval time.Duration
	// Jitter spreads each round's wait uniformly over
	// [(1-Jitter)×Interval, (1+Jitter)×Interval), so a fleet of
	// coordinators (or one coordinator whose probers all started on the
	// same reconnect) doesn't fire every probe on the same tick — the
	// thundering herd that turns a worker's recovery moment into a probe
	// storm. Zero disables; values are clamped to [0, 1].
	Jitter float64
	// Seed feeds the jitter RNG, keeping probe schedules deterministic in
	// tests (the dp.go convention for seeded randomness).
	Seed int64
}

// newHealthRNG builds the prober's jitter RNG from a policy seed.
func newHealthRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// wait returns the next round's jittered pause.
func (p HealthPolicy) wait(rng *rand.Rand) time.Duration {
	j := p.Jitter
	if j <= 0 {
		return p.Interval
	}
	if j > 1 {
		j = 1
	}
	f := 1 + j*(2*rng.Float64()-1)
	return time.Duration(float64(p.Interval) * f)
}

// StartHealth launches the background health prober. Each round pings
// every known worker (HEALTH request); the reply's instance epoch feeds
// restart detection, and with recovery enabled a restarted-but-reachable
// worker is repaired immediately. The prober stops when the coordinator is
// closed — Close joins it. Starting twice, or on a closed coordinator, is
// a no-op.
func (c *Coordinator) StartHealth(p HealthPolicy) {
	if p.Interval <= 0 {
		return
	}
	c.mu.Lock()
	if c.closed || c.probing {
		c.mu.Unlock()
		return
	}
	c.probing = true
	c.healthWg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.healthWg.Done()
		rng := newHealthRNG(p.Seed)
		t := time.NewTimer(p.wait(rng))
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
			}
			c.probeAll()
			t.Reset(p.wait(rng))
		}
	}()
}

// probeAll pings every currently connected worker once, sequentially (a
// probe round races nothing: operations hold their own retry loops, and
// the per-client mutex serializes the wire).
func (c *Coordinator) probeAll() {
	c.mu.Lock()
	addrs := make([]string, 0, len(c.touched))
	for addr := range c.touched {
		addrs = append(addrs, addr)
	}
	c.mu.Unlock()
	for _, addr := range addrs {
		if err := c.Ping(addr); err != nil {
			continue // unreachable: marked unhealthy, next round retries
		}
		if c.recovery {
			// Reachable again — if the epoch handshake (inside Ping's call
			// path) just revealed a restart, rebuild its live objects now,
			// off the critical path of the next operation.
			_ = c.Repair(addr)
		}
	}
}

// Ping sends one HEALTH request to addr and records the outcome for
// WorkerHealth. The reply's instance epoch feeds restart detection like
// any other response. A probe carries no deferred requests (it goes to
// sendCtx, under exchange): it must stay a pure HEALTH batch to bypass the
// breaker, and nothing it does depends on buffered work.
func (c *Coordinator) Ping(addr string) error {
	c.statProbes.Add(1)
	c.reg.Counter("fed.probes").Inc()
	resps, err := c.sendCtx(obs.WithOp(context.Background(), "health"), addr,
		[]fedrpc.Request{{Type: fedrpc.Health}})
	if err == nil && !resps[0].OK {
		err = fmt.Errorf("federated: %s HEALTH: %s", addr, resps[0].Err)
	}
	if err != nil {
		c.statProbeFail.Add(1)
		c.reg.Counter("fed.probe_failures").Inc()
		c.setHealthy(addr, false)
		return fmt.Errorf("federated: health probe of %s: %w", addr, err)
	}
	c.setHealthy(addr, true)
	return nil
}
