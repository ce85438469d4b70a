package bench

import (
	"fmt"
	"sync"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/obs"
)

// Pipeline benchmark geometry: a burst of depth small independent GETs over
// a single emulated-WAN connection, measured once lock-step (window 1) and
// once pipelined (window 8). Lock-step pays one RTT
// per call — the burst costs ~depth RTTs; pipelining overlaps the requests
// in flight, so the whole burst fits in a handful of RTTs. The RTT is fixed
// (not netem.WAN's, no bandwidth cap) so rtts_per_batch is comparable
// across machines.
const (
	pipelineRTT    = 35 * time.Millisecond
	pipelineDepth  = 8
	pipelineBursts = 3
	pipelineWindow = 8
)

// PipelineBench produces the BENCH_pipeline.json rows: the depth-8 burst
// latency at a 35 ms RTT under window 1 ("lockstep") and window 8
// ("pipelined"). Each row's rtts_per_batch is the mean burst wall time in
// units of the RTT — the figure the ci.sh gate (CheckPipeline) bounds.
func PipelineBench() ([]Measurement, error) {
	var out []Measurement
	for _, cfg := range []struct {
		algo   string
		window int
	}{
		{"lockstep", 1},
		{"pipelined", pipelineWindow},
	} {
		m, err := runPipelineBurst(cfg.algo, cfg.window)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runPipelineBurst times pipelineBursts bursts of pipelineDepth concurrent
// single-GET calls against one worker behind a symmetric pipelineRTT link,
// on a coordinator whose per-address pool holds exactly one connection —
// so the burst shares a wire and the window setting alone decides whether
// the calls overlap.
func runPipelineBurst(algoName string, window int) (Measurement, error) {
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Netem:   netem.Config{RTT: pipelineRTT},
		Window:  window,
		Metrics: obs.New(),
	})
	if err != nil {
		return Measurement{}, err
	}
	defer cl.Close()
	addr := cl.Addrs[0]

	// Seed the depth objects in one batched call.
	small := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	reqs := make([]fedrpc.Request, pipelineDepth)
	ids := make([]int64, pipelineDepth)
	for i := range reqs {
		ids[i] = cl.Coord.NewID()
		reqs[i] = fedrpc.Request{Type: fedrpc.Put, ID: ids[i], Data: fedrpc.MatrixPayload(small)}
	}
	resps, err := cl.Coord.Call(addr, reqs...)
	if err != nil {
		return Measurement{}, err
	}
	for _, r := range resps {
		if !r.OK {
			return Measurement{}, fmt.Errorf("bench: pipeline seed PUT: %s", r.Err)
		}
	}

	start := time.Now()
	for b := 0; b < pipelineBursts; b++ {
		var wg sync.WaitGroup
		errs := make([]error, pipelineDepth)
		for i := 0; i < pipelineDepth; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = cl.Coord.Fetch(addr, ids[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Measurement{}, fmt.Errorf("bench: pipeline burst GET: %w", err)
			}
		}
	}
	elapsed := time.Since(start)

	perBurst := elapsed / pipelineBursts
	return Measurement{
		Experiment: "pipeline", Algorithm: algoName, Mode: FedWAN, Workers: 1,
		Elapsed: elapsed,
		Extra: map[string]float64{
			"window":         float64(window),
			"depth":          pipelineDepth,
			"bursts":         pipelineBursts,
			"rtt_ms":         pipelineRTT.Seconds() * 1e3,
			"rtts_per_batch": perBurst.Seconds() / pipelineRTT.Seconds(),
		},
	}, nil
}

// CheckPipeline is the CI gate over a PipelineBench snapshot: the pipelined
// burst must land within maxRTTs round trips (lock-step needs ~depth), and
// lock-step must cost at least minSpeedup times the pipelined wall time —
// otherwise pipelining regressed to serialized exchanges without any test
// noticing.
func CheckPipeline(s Snapshot, maxRTTs, minSpeedup float64) error {
	byAlgo := map[string]Row{}
	for _, r := range s.Rows {
		if r.Experiment == "pipeline" {
			byAlgo[r.Algorithm] = r
		}
	}
	pip, ok := byAlgo["pipelined"]
	if !ok {
		return fmt.Errorf("bench: snapshot %q has no pipelined row", s.Name)
	}
	lock, ok := byAlgo["lockstep"]
	if !ok {
		return fmt.Errorf("bench: snapshot %q has no lockstep row", s.Name)
	}
	rtts, ok := pip.Extra["rtts_per_batch"]
	if !ok {
		return fmt.Errorf("bench: pipelined row carries no rtts_per_batch")
	}
	if rtts > maxRTTs {
		return fmt.Errorf("bench: pipelined depth-%d burst took %.2f RTTs (limit %.2f): pipelining is not overlapping calls",
			pipelineDepth, rtts, maxRTTs)
	}
	if pip.Seconds <= 0 {
		return fmt.Errorf("bench: pipelined row has non-positive seconds %.4f", pip.Seconds)
	}
	speedup := lock.Seconds / pip.Seconds
	if speedup < minSpeedup {
		return fmt.Errorf("bench: pipelined bursts only %.2fx faster than lock-step (want >= %.1fx)",
			speedup, minSpeedup)
	}
	return nil
}
