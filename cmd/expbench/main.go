// Command expbench regenerates the tables and figures of the ExDRa
// evaluation (§6) as result tables on stdout — the full benchmark harness
// of DESIGN.md's experiment index.
//
// Usage:
//
//	expbench -exp fig5|fig6|fig7|fig8|table1|wire|pipeline|all [-workers 1,2,3,5]
//	         [-rows N -cols N -cnnrows N -piperows N]
//	expbench -smoke [-json BENCH_smoke.json]
//	expbench -compare baseline.json,current.json [-max-ratio 2] [-floor 0.025]
//	expbench -check-pipeline BENCH_pipeline.json [-max-rtts 3.5] [-min-speedup 2]
//
// Sizes default to laptop scale; raise them to approach the paper's
// 1M x 1,050 setting. -smoke runs the fixed-scale CI smoke and -compare
// gates the encode+decode phase seconds of a fresh snapshot against a
// committed baseline (see BENCH_*.json and ci.sh); -exp wire emits the
// wire-format cost rows; -exp pipeline emits the burst rows at a fixed
// 35 ms RTT under window 8 and window 1 (lock-step) and -check-pipeline
// gates them (see BENCH_pipeline.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"exdra/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5, fig6, fig7, fig8, table1, wire, or all")
	workersFlag := flag.String("workers", "1,2,3", "comma-separated worker counts for scaling sweeps")
	rows := flag.Int("rows", 0, "override feature-matrix rows")
	cols := flag.Int("cols", 0, "override feature-matrix cols")
	cnnRows := flag.Int("cnnrows", 0, "override CNN dataset rows")
	pipeRows := flag.Int("piperows", 0, "override pipeline table rows")
	smoke := flag.Bool("smoke", false, "run the fixed-scale CI bench smoke (FedLAN transfer + LM) instead of -exp")
	jsonPath := flag.String("json", "", "also write the run's rows as a BENCH_*.json snapshot (with -smoke or -exp wire)")
	compare := flag.String("compare", "", "baseline.json,current.json: gate enc+dec phase seconds and exit")
	maxRatio := flag.Float64("max-ratio", 2, "allowed enc+dec regression ratio for -compare")
	floor := flag.Float64("floor", 0.025, "absolute enc+dec seconds below which -compare never fails")
	checkPipeline := flag.String("check-pipeline", "", "BENCH_pipeline.json: gate the pipelined burst rows and exit")
	maxRTTs := flag.Float64("max-rtts", 3.5, "allowed pipelined round trips per depth-8 burst for -check-pipeline")
	minSpeedup := flag.Float64("min-speedup", 2, "required lock-step/pipelined wall-time ratio for -check-pipeline")
	flag.Parse()

	if *checkPipeline != "" {
		snap, err := bench.ReadSnapshot(*checkPipeline)
		if err != nil {
			log.Fatalf("expbench: %v", err)
		}
		if err := bench.CheckPipeline(snap, *maxRTTs, *minSpeedup); err != nil {
			log.Fatalf("expbench: %v", err)
		}
		fmt.Printf("pipeline gate ok: %s within %.1f RTTs and >= %.1fx over lock-step\n",
			snap.Name, *maxRTTs, *minSpeedup)
		return
	}

	if *compare != "" {
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			log.Fatalf("expbench: -compare wants baseline.json,current.json, got %q", *compare)
		}
		base, err := bench.ReadSnapshot(strings.TrimSpace(parts[0]))
		if err != nil {
			log.Fatalf("expbench: %v", err)
		}
		cur, err := bench.ReadSnapshot(strings.TrimSpace(parts[1]))
		if err != nil {
			log.Fatalf("expbench: %v", err)
		}
		if err := bench.CompareEncDec(base, cur, *maxRatio, *floor); err != nil {
			log.Fatalf("expbench: %v", err)
		}
		fmt.Printf("bench compare ok: %s within %.1fx of %s\n", cur.Name, *maxRatio, base.Name)
		return
	}

	emit := func(name string, ms []bench.Measurement, err error) {
		if err != nil {
			log.Fatalf("expbench: %s: %v", name, err)
		}
		for _, m := range ms {
			fmt.Println(m.Row())
		}
		if *jsonPath != "" {
			snap := bench.NewSnapshot(name, ms)
			if err := snap.WriteFile(*jsonPath); err != nil {
				log.Fatalf("expbench: write %s: %v", *jsonPath, err)
			}
			fmt.Printf("wrote %s (%d rows)\n", *jsonPath, len(snap.Rows))
		}
	}

	if *smoke {
		ms, err := bench.Smoke()
		emit("smoke", ms, err)
		return
	}
	if *exp == "wire" {
		ms, err := bench.WireBench()
		emit("wire", ms, err)
		return
	}
	if *exp == "pipeline" {
		ms, err := bench.PipelineBench()
		emit("pipeline", ms, err)
		return
	}

	sc := bench.DefaultScale()
	if *rows > 0 {
		sc.Rows = *rows
	}
	if *cols > 0 {
		sc.Cols = *cols
	}
	if *cnnRows > 0 {
		sc.CNNRows = *cnnRows
	}
	if *pipeRows > 0 {
		sc.PipeRows = *pipeRows
	}
	var workers []int
	for _, part := range strings.Split(*workersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("expbench: bad -workers entry %q", part)
		}
		workers = append(workers, n)
	}
	midWorkers := workers[len(workers)/2]

	run := func(name string) error {
		switch name {
		case "table1":
			bench.Table1(os.Stdout)
			return nil
		case "fig5":
			return bench.Fig5(os.Stdout, sc, workers)
		case "fig6":
			return bench.Fig6(os.Stdout, sc, midWorkers)
		case "fig7":
			return bench.Fig7(os.Stdout, sc, midWorkers)
		case "fig8":
			return bench.Fig8(os.Stdout, sc, workers)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	targets := []string{*exp}
	if *exp == "all" {
		targets = []string{"table1", "fig5", "fig6", "fig7", "fig8"}
	}
	for _, t := range targets {
		if err := run(t); err != nil {
			log.Fatalf("expbench: %s: %v", t, err)
		}
		fmt.Println()
	}
}
