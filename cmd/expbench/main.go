// Command expbench regenerates the tables and figures of the ExDRa
// evaluation (§6) as result tables on stdout — the full benchmark harness
// of DESIGN.md's experiment index.
//
// Usage:
//
//	expbench -exp fig5|fig6|fig7|fig8|table1|all [-workers 1,2,3,5]
//	         [-rows N -cols N -cnnrows N -piperows N]
//
// Sizes default to laptop scale; raise them to approach the paper's
// 1M x 1,050 setting. The numbers ci.sh gates come from go run ./benchmark,
// not from this command.
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
	exp := flag.String("exp", "all", "experiment: fig5, fig6, fig7, fig8, table1, or all")
	workersFlag := flag.String("workers", "1,2,3", "comma-separated worker counts for scaling sweeps")
	rows := flag.Int("rows", 0, "override feature-matrix rows")
	cols := flag.Int("cols", 0, "override feature-matrix cols")
	cnnRows := flag.Int("cnnrows", 0, "override CNN dataset rows")
	pipeRows := flag.Int("piperows", 0, "override pipeline table rows")
	flag.Parse()

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
