package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/pipeline"
	"exdra/internal/privacy"
)

const rawFile = "raw.csv"

// ingestData is the generated input of raw-ingest: the paper-production
// table without its target column (the labels stay at the coordinator),
// split in two site files, and the Public matrix of the bulk transfers.
type ingestData struct {
	fr      *frame.Frame
	y       *matrix.Dense
	bulk    *matrix.Dense
	bulkY   *matrix.Dense
	dirs    []string // one base directory per worker
	csvSize int64    // bytes of site 0's file
}

func genIngest(seed int64, sh shapes, dir string) (ingestData, error) {
	full := data.PaperProduction(data.PaperProductionConfig{Rows: sh.ingestRows,
		ContinuousCols: sh.ingestSignals, RecipeCategories: sh.ingestRecipes, NullRate: 0.01, Seed: seed})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		return ingestData{}, err
	}
	d := ingestData{fr: fr, y: y}
	half := fr.NumRows() / 2
	for i, part := range []*frame.Frame{fr.SliceRows(0, half), fr.SliceRows(half, fr.NumRows())} {
		site := filepath.Join(dir, fmt.Sprintf("site%d", i))
		if err := os.MkdirAll(site, 0o755); err != nil {
			return ingestData{}, err
		}
		if err := part.WriteCSVFile(filepath.Join(site, rawFile)); err != nil {
			return ingestData{}, err
		}
		d.dirs = append(d.dirs, site)
	}
	st, err := os.Stat(filepath.Join(d.dirs[0], rawFile))
	if err != nil {
		return ingestData{}, err
	}
	d.csvSize = st.Size()
	rng := rand.New(rand.NewSource(seed + 1))
	d.bulk = matrix.Randn(rng, sh.bulkRows, sh.bulkCols, 0, 1)
	d.bulkY = matrix.Randn(rng, sh.bulkRows, 1, 0, 1)
	return d, nil
}

// ingestOut is what one raw-ingest pass produced.
type ingestOut struct {
	coldRows, coldCols, warmRows, warmCols int
	p2                                     *pipeline.P2Result
	back                                   *matrix.Dense
	frameRows                              int
	stepSeconds                            map[string]float64
}

// ingestPass is one pass over the raw data: cold READ of both site files,
// warm re-READ of the same files, the P2 pipeline with LM, and the bulk
// movement — three PUTs and one GET of the Public matrix, one PUT of the
// raw frame. The workers' lineage caches are emptied before the pass, so
// the first READ parses the files again.
func ingestPass(r *run, cl *fedtest.Cluster, d ingestData) (out ingestOut, wall time.Duration) {
	for _, w := range cl.Workers {
		w.Lineage.Reset()
	}
	specs := make([]federated.ReadSpec, len(cl.Addrs))
	for i, addr := range cl.Addrs {
		specs[i] = federated.ReadSpec{Addr: addr, Filename: rawFile, Privacy: privacy.PrivateAggregation}
	}
	r.beginPass()
	out.stepSeconds = map[string]float64{}
	id := r.tr.begin("pass")
	start := time.Now()
	timed := func(name string, fn func() error) {
		out.stepSeconds[name] = r.step(name, fn).Seconds()
	}
	var ff *federated.Frame
	timed("read_cold", func() error {
		var err error
		if ff, err = federated.ReadFrames(cl.Coord, specs); err == nil {
			out.coldRows, out.coldCols = ff.Rows(), ff.Cols()
		}
		return err
	})
	timed("read_warm", func() error {
		again, err := federated.ReadFrames(cl.Coord, specs)
		if err == nil {
			out.warmRows, out.warmCols = again.Rows(), again.Cols()
		}
		return err
	})
	timed("p2", func() error {
		if ff == nil {
			return fmt.Errorf("no federated frame to run on")
		}
		var err error
		out.p2, err = pipeline.RunP2Federated(ff, d.y, d.fr.Names(), pipeline.P2Config{
			Spec: data.PaperProductionSpec(), TrainAlgo: "lm", Seed: r.cfg.seed})
		return err
	})
	var fb *federated.Matrix
	timed("bulk_put", func() error {
		for i := 0; i < 3; i++ {
			var err error
			if fb, err = federated.Distribute(cl.Coord, d.bulk, cl.Addrs, federated.RowPartitioned, privacy.Public); err != nil {
				return err
			}
		}
		return nil
	})
	timed("bulk_get", func() error {
		if fb == nil {
			return fmt.Errorf("no distributed matrix to consolidate")
		}
		var err error
		out.back, err = fb.Consolidate()
		return err
	})
	timed("frame_put", func() error {
		f, err := federated.DistributeFrame(cl.Coord, d.fr, cl.Addrs, privacy.Public)
		if err == nil {
			out.frameRows = f.Rows()
		}
		return err
	})
	wall = time.Since(start)
	r.tr.end(id, nil)
	return out, wall
}

// checkIngest verifies one pass: the READs see the whole table, P2 agrees
// with the first pass bitwise and with the local pipeline the way the
// repository's own test asks (same encoded width, both in the quality band
// above R2 0.8 — the federated split draws per-partition prefixes, so R2
// itself differs slightly), and the consolidated matrix is the distributed
// one bitwise.
func checkIngest(r *run, d ingestData, got, first ingestOut, local *pipeline.P2Result) {
	if got.coldRows != d.fr.NumRows() || got.coldCols != d.fr.NumCols() {
		r.check("read_cold", fmt.Errorf("cold READ saw %dx%d, the table is %dx%d", got.coldRows, got.coldCols, d.fr.NumRows(), d.fr.NumCols()))
	}
	if got.warmRows != got.coldRows || got.warmCols != got.coldCols {
		r.check("read_warm", fmt.Errorf("warm READ saw %dx%d, the cold one %dx%d", got.warmRows, got.warmCols, got.coldRows, got.coldCols))
	}
	switch {
	case got.p2 == nil || first.p2 == nil:
		r.check("p2", fmt.Errorf("no pipeline result"))
	case got.p2.R2 != first.p2.R2:
		r.check("p2", fmt.Errorf("R2 %g differs from the first pass's %g", got.p2.R2, first.p2.R2))
	case got.p2.Features != local.Features:
		r.check("p2", fmt.Errorf("encoded width %d, locally %d", got.p2.Features, local.Features))
	case got.p2.R2 < 0.8 || local.R2 < 0.8:
		r.check("p2", fmt.Errorf("R2 %g (local %g) below the 0.8 quality band", got.p2.R2, local.R2))
	}
	r.check("bulk_get", wantBits("consolidated matrix", got.back, d.bulk))
	if got.frameRows != d.fr.NumRows() {
		r.check("frame_put", fmt.Errorf("distributed frame has %d rows, want %d", got.frameRows, d.fr.NumRows()))
	}
}

// runIngest is raw-ingest: the "raw data" half of the paper's title.
func runIngest(r *run) error {
	sh := r.cfg.shapes
	scratch, err := r.scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var d ingestData
	var cl *fedtest.Cluster
	teardown, err := r.repeatSetup(func() (func(), error) {
		var err error
		if d, err = genIngest(r.cfg.seed, sh, scratch); err != nil {
			return nil, err
		}
		if cl, err = r.startCluster(netem.LAN(), 0, d.dirs); err != nil {
			return nil, err
		}
		quiet := r.quiet()
		ingestPass(quiet, cl, d)
		clearWorkers(quiet, cl, make([]int, len(cl.Workers)))
		if err := quiet.firstFailure(); err != nil {
			cl.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return func() { cl.Close(); cl, d = nil, ingestData{} }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	local, err := pipeline.RunP2Local(d.fr, d.y, pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "lm", Seed: r.cfg.seed})
	if err != nil {
		return fmt.Errorf("local pipeline: %w", err)
	}
	if r.cfg.corrupt {
		local.Features++
	}

	budget := r.passBudget()
	pass := func() (ingestOut, time.Duration, float64) {
		before := objectCounts(cl)
		bytes := cl.Coord.BytesSent() + cl.Coord.BytesReceived()
		out, wall := ingestPass(r, cl, d)
		mb := float64(cl.Coord.BytesSent()+cl.Coord.BytesReceived()-bytes) / 1e6
		clearWorkers(r, cl, before)
		return out, wall, mb
	}
	var first ingestOut
	var wireMB []float64
	loopStart := time.Now()
	for len(wireMB) < minPasses || time.Since(loopStart) < budget {
		var out ingestOut
		var mb float64
		runtime.GC() // as before a training pass: start from a collected heap
		err := r.clocked(func() (wall time.Duration) {
			out, wall, mb = pass()
			return wall
		})
		if err != nil {
			return err
		}
		wireMB = append(wireMB, mb)
		if len(wireMB) == 1 {
			first = out
		}
		checkIngest(r, d, out, first, local)
	}
	r.setPasses()
	checkWire(r, wireMB)

	if r.cfg.trace {
		var out ingestOut
		r.tracedPass(median(r.rec.PassSeconds), func() time.Duration {
			var wall time.Duration
			out, wall, _ = pass()
			return wall
		})
		checkIngest(r, d, out, first, local)
		s := out.stepSeconds
		r.set("worker.read_cold_s", "s", s["read_cold"])
		r.set("worker.read_warm_s", "s", s["read_warm"])
		if s["read_cold"] > 0 {
			r.set("lineage.warm_over_cold", "ratio", s["read_warm"]/s["read_cold"])
		}
		r.set("pipeline.p2_s", "s", s["p2"])
		r.set("federated.bulk_put_s", "s", s["bulk_put"])
		r.set("federated.bulk_get_s", "s", s["bulk_get"])
		r.set("federated.frame_put_s", "s", s["frame_put"])
		for _, sp := range r.spans {
			if sp.Name == "p2" {
				// transformencode runs as the pipeline's only UDFs, so their
				// busy seconds at the workers are its cost.
				r.set("transform.encode_s", "s", sp.Counts["worker_udf_s"])
			}
		}
		if err := csvProbe(r, filepath.Join(d.dirs[0], rawFile), d.csvSize); err != nil {
			return err
		}
		return layerProbes(r)
	}
	r.set("wire_mb", "MB", wireMB[0])
	fx, release, err := federate(r, cl, d.bulk, privacy.Public)
	if err != nil {
		return err
	}
	defer release()
	return interactiveOps(r, fx, d.bulk, d.bulkY, false)
}
