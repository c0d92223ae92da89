// Command perfbench is the repository's host-cost benchmark. It runs
// one workload — a fixed, seeded list of hermetic simulation runs —
// in a closed loop on one goroutine, checks every output against
// figures computed apart from the program, and prints one JSON line
// with the end-to-end metrics (untraced) or the per-layer metrics
// (traced).
//
// Usage (from the repository root, through the wrapper that builds
// this module):
//
//	bash perfbench/run.sh --workload substrate --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh steady -runs 10
//
// See perfbench/README.md for the workloads, the metrics and the map
// from each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(runSteady(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: substrate, pipeline or recovery")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same op list and inputs")
	seconds := fs.Int("seconds", 8, "run length; the op list is sized to take about this long on the reference host")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench/trace", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want substrate, pipeline or recovery)\n", *workload)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// The simulation is single-threaded per kernel; the Go runtime gets
	// the machine's CPUs and no more, so its GC workers never
	// oversubscribe them.
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg := runConfig{workload: wl, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
