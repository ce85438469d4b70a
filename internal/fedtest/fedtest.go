// Package fedtest spins up in-process federations — N standing workers on
// loopback TCP plus a coordinator — standing in for the paper's 8-node
// cluster in tests, examples, and benchmarks. Workers are real fedrpc
// servers; only their placement (goroutines instead of machines) differs
// from a production deployment, so the full protocol path is exercised.
package fedtest

import (
	"fmt"
	"time"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/netem"
	"exdra/internal/obs"
	"exdra/internal/worker"
)

// Config describes the federation to start.
type Config struct {
	// Workers is the number of federated sites (default 3).
	Workers int
	// TLS enables SSL-encrypted channels with an ephemeral self-signed
	// certificate (the paper's SSL setting).
	TLS bool
	// Netem shapes every connection (LAN by default, netem.WAN() for the
	// wide-area experiments).
	Netem netem.Config
	// BaseDirs are the per-worker raw-data directories for READ requests;
	// empty entries (or a short slice) leave workers without file access.
	BaseDirs []string
	// Faults injects deterministic transport faults into the coordinator's
	// worker connections (client side only), exercising the redial/retry
	// recovery paths. The same *Faults can be inspected afterwards via
	// Stats() to assert the faults actually fired.
	Faults *netem.Faults
	// Policy is the failure model of Fleet and so of every session on it,
	// Coord included (federated.Policy); the zero value retries nothing and
	// sets no call budget. Restart recovery is always on.
	Policy federated.Policy
	// SlowRPC makes the coordinator log every RPC slower than this
	// threshold with its full phase breakdown (0 disables).
	SlowRPC time.Duration
	// Metrics, when non-nil, isolates the whole federation's counters and
	// histograms (coordinator clients, servers, and workers) in the given
	// registry instead of obs.Default() — benchmarks fold exactly their
	// own run's deltas, unpolluted by parallel tests.
	Metrics *obs.Registry
	// PoolSize is the number of pooled connections per worker address in
	// the cluster's one Fleet (default 1), which Coord and every other
	// session share.
	PoolSize int
	// MaxConns caps concurrently served connections per worker (0 =
	// unlimited), exercising the accept-limit path.
	MaxConns int
	// Window caps pipelined in-flight calls per coordinator→worker
	// connection (fedrpc.Options.Window): zero means fedrpc.DefaultWindow,
	// 1 lock-step.
	Window int
}

// Cluster is a running in-process federation. Fleet is its one
// multi-session substrate (connection pools sized by Config.PoolSize) that
// Fleet.NewSession and fedserve build on; Coord is a session of it, opened
// by Start for callers that need just one.
type Cluster struct {
	Workers []*worker.Worker
	Servers []*fedrpc.Server
	Addrs   []string
	Coord   *federated.Coordinator
	Fleet   *federated.Fleet

	serverOpts fedrpc.Options
	baseDirs   []string // per worker, padded to len(Workers)
	metrics    *obs.Registry
}

// Registry returns the observability registry this federation reports
// into: the configured Metrics registry, or obs.Default().
func (c *Cluster) Registry() *obs.Registry {
	if c.metrics != nil {
		return c.metrics
	}
	return obs.Default()
}

// Start launches the federation.
func Start(cfg Config) (*Cluster, error) {
	n := cfg.Workers
	if n <= 0 {
		n = 3
	}
	var serverOpts, clientOpts fedrpc.Options
	serverOpts.Netem = cfg.Netem
	serverOpts.Metrics = cfg.Metrics
	serverOpts.MaxConns = cfg.MaxConns
	clientOpts.Netem = cfg.Netem
	clientOpts.Netem.Faults = cfg.Faults
	clientOpts.SlowRPC = cfg.SlowRPC
	clientOpts.Metrics = cfg.Metrics
	clientOpts.Window = cfg.Window
	if cfg.TLS {
		srvTLS, cliTLS, err := fedrpc.NewSelfSignedTLS()
		if err != nil {
			return nil, err
		}
		serverOpts.TLS = srvTLS
		clientOpts.TLS = cliTLS
	}
	cl := &Cluster{serverOpts: serverOpts, metrics: cfg.Metrics}
	for i := 0; i < n; i++ {
		dir := ""
		if i < len(cfg.BaseDirs) {
			dir = cfg.BaseDirs[i]
		}
		w := worker.New(dir)
		if cfg.Metrics != nil {
			w.Metrics = cfg.Metrics
		}
		srv, err := fedrpc.Serve("127.0.0.1:0", w, serverOpts)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("fedtest: start worker %d: %w", i, err)
		}
		cl.Workers = append(cl.Workers, w)
		cl.Servers = append(cl.Servers, srv)
		cl.Addrs = append(cl.Addrs, srv.Addr())
		cl.baseDirs = append(cl.baseDirs, dir)
	}
	cl.Fleet = federated.NewFleet(clientOpts, cfg.PoolSize, cfg.Policy)
	coord, err := cl.Fleet.NewSession()
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.Coord = coord
	return cl, nil
}

// RestartWorker kills worker i and brings up a brand-new worker process
// state on the same port: the replacement has a fresh instance epoch and
// an empty symbol table, exactly like a crashed-and-restarted site. The
// coordinator's standing connection dies with the old server and is only
// discovered broken on its next use — again like production. Go listeners
// bind with SO_REUSEADDR, so rebinding the just-freed port needs no wait.
func (c *Cluster) RestartWorker(i int) error {
	if i < 0 || i >= len(c.Servers) {
		return fmt.Errorf("fedtest: restart worker %d: no such worker", i)
	}
	addr := c.Addrs[i]
	c.Servers[i].Close()
	w := worker.New(c.baseDirs[i])
	if c.metrics != nil {
		w.Metrics = c.metrics
	}
	srv, err := fedrpc.Serve(addr, w, c.serverOpts)
	if err != nil {
		return fmt.Errorf("fedtest: restart worker %d on %s: %w", i, addr, err)
	}
	c.Workers[i] = w
	c.Servers[i] = srv
	return nil
}

// Close shuts down the session Coord, then the fleet, then all workers.
func (c *Cluster) Close() {
	if c.Coord != nil {
		c.Coord.Close()
	}
	if c.Fleet != nil {
		c.Fleet.Close()
	}
	for _, s := range c.Servers {
		s.Close()
	}
}
