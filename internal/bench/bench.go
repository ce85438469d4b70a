// Package bench is the experiment harness reproducing the tables and
// figures of ExDRa §6 (see DESIGN.md's experiment index): workload
// generators, environment setup (Local / Federated LAN / Federated WAN /
// WAN+SSL), parameter sweeps over the number of federated workers, and
// printers that emit the same rows/series the paper reports. Both
// cmd/expbench and the repository-root testing.B benchmarks drive it.
package bench

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/obs"
)

// Mode is an execution environment of §6.1.
type Mode string

// Execution environments.
const (
	// Local is single-node, in-memory execution (the paper's main
	// baseline).
	Local Mode = "local"
	// FedLAN is the federated backend on an un-delayed network.
	FedLAN Mode = "fed-lan"
	// FedWAN adds the paper's Copenhagen–Graz WAN characteristics.
	FedWAN Mode = "fed-wan"
	// FedWANSSL is FedWAN with SSL-encrypted channels.
	FedWANSSL Mode = "fed-wan+ssl"
)

// Scale sizes the synthetic workloads. The defaults are laptop-scale but
// preserve the paper's runtime shapes; raise them (flags/env) to approach
// the paper's 1M x 1,050 setting.
type Scale struct {
	// Rows and Cols size the dense feature matrix (paper: 1M x 1,050).
	Rows, Cols int
	// KMeansK is the number of centroids (paper: 50).
	KMeansK int
	// PCAK is the number of projected features (paper: 10).
	PCAK int
	// FFNEpochs/FFNBatch configure the FFN PS run (paper: 5 epochs, 512).
	FFNEpochs, FFNBatch, FFNHidden int
	// CNNRows sizes the MNIST-like set (paper: 60K); CNNEpochs/CNNBatch
	// as in the paper (2 epochs, 128).
	CNNRows, CNNEpochs, CNNBatch, CNNFilters int
	// PipeRows/PipeSignals/PipeRecipes size the P2 raw table.
	PipeRows, PipeSignals, PipeRecipes int
	// Seed for all generators.
	Seed int64
}

// DefaultScale returns the scaled-down default configuration.
func DefaultScale() Scale {
	s := Scale{
		Rows: 4000, Cols: 60,
		KMeansK: 8, PCAK: 10,
		FFNEpochs: 5, FFNBatch: 256, FFNHidden: 64,
		CNNRows: 400, CNNEpochs: 1, CNNBatch: 64, CNNFilters: 4,
		PipeRows: 3000, PipeSignals: 20, PipeRecipes: 40,
		Seed: 42,
	}
	s.applyEnv()
	return s
}

// applyEnv lets EXDRA_ROWS / EXDRA_COLS / EXDRA_CNN_ROWS / EXDRA_PIPE_ROWS
// scale experiments up toward the paper's sizes without code changes.
func (s *Scale) applyEnv() {
	if v, ok := envInt("EXDRA_ROWS"); ok {
		s.Rows = v
	}
	if v, ok := envInt("EXDRA_COLS"); ok {
		s.Cols = v
	}
	if v, ok := envInt("EXDRA_CNN_ROWS"); ok {
		s.CNNRows = v
	}
	if v, ok := envInt("EXDRA_PIPE_ROWS"); ok {
		s.PipeRows = v
	}
}

func envInt(key string) (int, bool) {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n, true
		}
	}
	return 0, false
}

// Env binds a mode to a worker count.
type Env struct {
	Mode    Mode
	Workers int
	// Metrics, when non-nil, isolates the run's counters in a dedicated
	// registry so folded deltas cannot be polluted by concurrent activity
	// on obs.Default().
	Metrics *obs.Registry
}

// Cluster starts the federation matching the env (nil cluster for Local).
func (e Env) Cluster() (*fedtest.Cluster, error) {
	if e.Mode == Local {
		return nil, nil
	}
	cfg := fedtest.Config{Workers: e.Workers, Metrics: e.Metrics}
	switch e.Mode {
	case FedLAN:
	case FedWAN:
		cfg.Netem = netem.WAN()
	case FedWANSSL:
		cfg.Netem = netem.WAN()
		cfg.TLS = true
	default:
		return nil, fmt.Errorf("bench: unknown mode %q", e.Mode)
	}
	return fedtest.Start(cfg)
}

// Measurement is one experiment data point.
type Measurement struct {
	Experiment string
	Algorithm  string
	Mode       Mode
	Workers    int
	Elapsed    time.Duration
	// Extra carries experiment-specific values (accuracy, R2, bytes moved).
	Extra map[string]float64
}

// Row renders the measurement as a result-table row.
func (m Measurement) Row() string {
	s := fmt.Sprintf("%-8s %-10s %-12s workers=%-2d time=%10.3fs",
		m.Experiment, m.Algorithm, m.Mode, m.Workers, m.Elapsed.Seconds())
	for _, k := range sortedKeys(m.Extra) {
		s += fmt.Sprintf(" %s=%.4g", k, m.Extra[k])
	}
	return s
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
