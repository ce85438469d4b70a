// Command exdra is the workbench backend CLI of ExDRa-Go (the stand-in for
// the Siemens ML workbench of §3.1): it runs ML pipelines on local or
// federated raw data, tracks runs in an ExperimentDB directory, lists and
// compares tracked runs, and prints the supported federated instruction
// classes.
//
// Usage:
//
//	exdra p2      -algo lm|ffn [-workers addr1,addr2 | -spawn 3] [-rows N] [-track dir]
//	              [-retries N -retry-backoff 50ms] [-fault-resets N -fault-reset-after 16384]
//	              [-recover] [-health-interval 5s]
//	              [-call-timeout 5s] [-breaker-threshold 3]
//	exdra runs    -track dir [-metric r2]
//	exdra table1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"exdra/internal/bench"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/expdb"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/obs"
	"exdra/internal/pipeline"
	"exdra/internal/privacy"

	// Parameter-server UDFs for in-process spawned workers.
	_ "exdra/internal/paramserv"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "p2":
		runP2(os.Args[2:])
	case "runs":
		listRuns(os.Args[2:])
	case "recommend":
		recommend(os.Args[2:])
	case "impute":
		imputeDemo(os.Args[2:])
	case "table1":
		bench.Table1(os.Stdout)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: exdra <p2|runs|recommend|impute|table1> [flags]")
	os.Exit(2)
}

// imputeDemo runs the federated missing-value imputation of §4.4 Example 4
// over a synthetic paper-production table with NULL quality classes.
func imputeDemo(args []string) {
	fs := flag.NewFlagSet("impute", flag.ExitOnError)
	rows := fs.Int("rows", 2000, "synthetic paper-production rows")
	spawn := fs.Int("spawn", 3, "in-process federated workers")
	method := fs.String("method", "fd", "imputation method: mode or fd (recipe -> quality)")
	fs.Parse(args)

	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: *rows, ContinuousCols: 8, RecipeCategories: 25, NullRate: 0.08, Seed: 13,
	})
	fr, _, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	nulls := 0
	q := fr.ColumnByName("quality")
	for i := 0; i < q.Len(); i++ {
		if q.IsNA(i) {
			nulls++
		}
	}
	cl, err := fedtest.Start(fedtest.Config{Workers: *spawn})
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	defer cl.Close()
	ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	fmt.Printf("federated frame: %d rows across %d sites, %d NULL quality classes\n",
		ff.Rows(), *spawn, nulls)
	switch *method {
	case "mode":
		_, mode, err := ff.ImputeMode("quality")
		if err != nil {
			log.Fatalf("exdra: %v", err)
		}
		fmt.Printf("imputed all NULLs with the global mode %q (only aggregate counts were exchanged)\n", mode)
	case "fd":
		_, mapping, err := ff.ImputeFD("recipe", "quality", 0.5)
		if err != nil {
			log.Fatalf("exdra: %v", err)
		}
		fmt.Printf("imputed via robust functional dependency recipe -> quality (%d mapped recipes; only co-occurrence counts were exchanged)\n", len(mapping))
	default:
		log.Fatalf("exdra: unknown imputation method %q", *method)
	}
}

// recommend ranks candidate pipelines from the tracked run history — the
// ExperimentDB recommendation engine of §3.3.
func recommend(args []string) {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	trackDir := fs.String("track", "", "ExperimentDB directory")
	metric := fs.String("metric", "r2", "metric the recommender optimizes")
	fs.Parse(args)
	if *trackDir == "" {
		log.Fatal("exdra recommend: -track is required")
	}
	store, err := expdb.Open(*trackDir)
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	rec, err := expdb.NewRecommender(store, *metric, 0.01)
	if err != nil {
		log.Fatalf("exdra: %v (run some tracked pipelines first)", err)
	}
	candidates := []expdb.Candidate{
		{PipelineID: "P2_lm", Steps: []expdb.Step{
			{Name: "transformencode"}, {Name: "clip_scale"}, {Name: "normalize_cols"},
			{Name: "train_test_split"}, {Name: "lm_train"}}},
		{PipelineID: "P2_ffn", Steps: []expdb.Step{
			{Name: "transformencode"}, {Name: "clip_scale"}, {Name: "normalize_cols"},
			{Name: "train_test_split"}, {Name: "ffn_train"}}},
		{PipelineID: "P2_lm_imputed", Steps: []expdb.Step{
			{Name: "transformencode"}, {Name: "mice_impute"}, {Name: "normalize_cols"},
			{Name: "train_test_split"}, {Name: "lm_train"}}},
	}
	stats := map[string]float64{"rows": 3000, "cols": 70}
	fmt.Printf("recommended pipelines by predicted %s (best first):\n", *metric)
	for _, r := range rec.Recommend(candidates, stats) {
		fmt.Printf("  %-16s predicted %s = %.4f\n", r.Candidate.PipelineID, *metric, r.Score)
	}
}

// printFedCounters prints the fed.* restart/probe counters after a federated
// run when recovery or probing was active.
func printFedCounters(p federated.Policy) {
	if !p.Recover && p.ProbeInterval <= 0 && p.BreakerThreshold <= 0 {
		return
	}
	n := func(name string) int64 { return obs.Default().Counter(name).Value() }
	fmt.Printf("exdra: recovery stats: %d restarts detected, %d objects replayed, %d replay failures, %d/%d probes failed\n",
		n("fed.restarts_detected"), n("fed.objects_replayed"), n("fed.replay_failures"), n("fed.probe_failures"), n("fed.probes"))
}

func runP2(args []string) {
	fs := flag.NewFlagSet("p2", flag.ExitOnError)
	algo := fs.String("algo", "lm", "training algorithm: lm or ffn")
	workersFlag := fs.String("workers", "", "comma-separated federated worker addresses (host:port)")
	spawn := fs.Int("spawn", 0, "spawn N in-process workers instead of connecting to -workers")
	rows := fs.Int("rows", 3000, "synthetic paper-production rows")
	trackDir := fs.String("track", "", "ExperimentDB directory for run tracking")
	retries := fs.Int("retries", 0,
		"retry attempts per idempotent request batch after a transport failure (0 = fail fast)")
	retryBackoff := fs.Duration("retry-backoff", 50*time.Millisecond,
		"base backoff before a retry, doubling per attempt (capped at 2s, jittered)")
	faultResets := fs.Int("fault-resets", 0,
		"with -spawn: inject N connection resets (at most one per worker) to exercise recovery")
	faultResetAfter := fs.Int64("fault-reset-after", 16<<10,
		"with -fault-resets: written-byte threshold that triggers an injected reset")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the deterministic fault schedule")
	recoverFlag := fs.Bool("recover", false,
		"enable restart recovery: log object creations and replay them when a worker comes back with a new instance epoch")
	healthInterval := fs.Duration("health-interval", 0,
		"probe worker liveness every interval (0 = only with -breaker-threshold, every second); a restart the prober finds is replayed before the next dependent batch leaves")
	callTimeout := fs.Duration("call-timeout", 0,
		"per-batch deadline propagated to workers over the wire; a stalled worker fails the batch with DEADLINE_EXCEEDED instead of hanging (0 = no deadline)")
	breakerThreshold := fs.Int("breaker-threshold", 0,
		"open a worker's circuit breaker after N consecutive transport/deadline failures; while open, calls fail fast with ErrWorkerUnavailable until a health probe (always on with the breaker) succeeds (0 = breaker disabled)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9091; empty disables)")
	slowRPC := fs.Duration("slow-rpc", 0,
		"log every RPC slower than this threshold with its phase breakdown (0 disables)")
	fs.Parse(args)

	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			log.Fatalf("exdra: metrics endpoint: %v", err)
		}
		defer ms.Close()
		engine.SetInstrumentation(engine.OpTimer(obs.Default(), "engine.op_seconds."))
		defer engine.SetInstrumentation(nil)
		fmt.Printf("exdra: metrics on http://%s/metrics\n", ms.Addr())
	}

	policy := federated.Policy{
		Attempts: *retries + 1, Backoff: *retryBackoff, Seed: *faultSeed, CallTimeout: *callTimeout,
		BreakerThreshold: *breakerThreshold, ProbeInterval: *healthInterval, Recover: *recoverFlag,
	}
	var faults *netem.Faults
	if *faultResets > 0 {
		faults = netem.NewFaults(netem.FaultConfig{
			Seed: *faultSeed, ConnResets: *faultResets,
			ResetAfterBytes: *faultResetAfter, ResetPerAddr: true,
		})
	}

	var store *expdb.Store
	var err error
	if *trackDir != "" {
		if store, err = expdb.Open(*trackDir); err != nil {
			log.Fatalf("exdra: open experiment store: %v", err)
		}
	}
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: *rows, ContinuousCols: 20, RecipeCategories: 40, NullRate: 0.01, Seed: 7,
	})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	cfg := pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: *algo, Track: store, Seed: 7,
		FFNEpochs: 5, FFNBatch: 256, FFNHidden: 64,
	}

	var res *pipeline.P2Result
	switch {
	case *spawn > 0:
		cl, err := fedtest.Start(fedtest.Config{
			Workers: *spawn, Faults: faults, Policy: policy, SlowRPC: *slowRPC,
		})
		if err != nil {
			log.Fatalf("exdra: spawn workers: %v", err)
		}
		defer cl.Close()
		fmt.Printf("exdra: spawned %d in-process federated workers: %v\n", *spawn, cl.Addrs)
		ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
		if err != nil {
			log.Fatalf("exdra: distribute: %v", err)
		}
		res, err = pipeline.RunP2Federated(ff, y, fr.Names(), cfg)
		if err != nil {
			log.Fatalf("exdra: pipeline: %v", err)
		}
		if faults != nil {
			s := faults.Stats()
			fmt.Printf("exdra: injected faults survived: %d resets, %d drops, %d stalls\n",
				s.Resets, s.Drops, s.Stalls)
		}
		printFedCounters(policy)
	case *workersFlag != "":
		addrs := strings.Split(*workersFlag, ",")
		coord := federated.NewCoordinator(fedrpc.Options{SlowRPC: *slowRPC}, policy)
		defer coord.Close()
		ff, err := federated.DistributeFrame(coord, fr, addrs, privacy.PrivateAggregation)
		if err != nil {
			log.Fatalf("exdra: distribute to %v: %v", addrs, err)
		}
		res, err = pipeline.RunP2Federated(ff, y, fr.Names(), cfg)
		if err != nil {
			log.Fatalf("exdra: pipeline: %v", err)
		}
		printFedCounters(policy)
	default:
		if res, err = pipeline.RunP2Local(fr, y, cfg); err != nil {
			log.Fatalf("exdra: pipeline: %v", err)
		}
	}
	fmt.Printf("P2_%s: test R2 = %.4f (train %d rows, test %d rows, %d encoded features)\n",
		*algo, res.R2, res.TrainRows, res.TestRows, res.Features)
	if res.RunID != "" {
		fmt.Printf("tracked as %s in %s\n", res.RunID, *trackDir)
	}
}

func listRuns(args []string) {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	trackDir := fs.String("track", "", "ExperimentDB directory")
	metric := fs.String("metric", "r2", "metric to display")
	fs.Parse(args)
	if *trackDir == "" {
		log.Fatal("exdra runs: -track is required")
	}
	store, err := expdb.Open(*trackDir)
	if err != nil {
		log.Fatalf("exdra: %v", err)
	}
	runs := store.Query(nil)
	if len(runs) == 0 {
		fmt.Println("no tracked runs")
		return
	}
	for _, r := range runs {
		fmt.Printf("%-12s %-10s %v %s=%.4f (%s)\n",
			r.ID, r.PipelineID, stepNames(r), *metric, r.Metrics[*metric], r.Duration.Round(1e6))
	}
	if best, ok := store.Best(*metric); ok {
		fmt.Printf("best %s: %s (%s = %.4f)\n", *metric, best.ID, *metric, best.Metrics[*metric])
	}
}

func stepNames(r *expdb.Run) []string {
	out := make([]string, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Name
	}
	return out
}
