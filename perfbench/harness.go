package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workload is one of the benchmark's three op lists.
type workload struct {
	name string
	// roundSeconds is the host time one round of the op list takes on
	// the reference host (README, "Reference host"). A run is a fixed
	// op list of whole rounds sized from -seconds with it, so a faster
	// commit finishes the same work sooner instead of running more ops
	// (and leaving more parked goroutines behind).
	roundSeconds float64
	// setupReps is how many times set-up is repeated; setup_s is the
	// median. One set-up of a few tens of ms varies 5–15% from one
	// repetition to the next, so the shortest set-ups repeat most.
	setupReps int
	// prepare generates one run's inputs from the seed: the op list of
	// the given number of rounds and everything the ops read. It is the
	// timed input-generation part of set-up; with a tracer it also
	// records the set-up calls into the program (parsing, generation).
	prepare func(seed int64, rounds int, tr *tracer, lay *layers) (*plan, error)
}

// plan is one run's inputs: the op list, the ops set-up runs to warm
// up (the same for every seed, so set-up time does not depend on which
// op a shuffle put first), and what runs once the loop is done: the
// checks that need several ops' results (cross-transport ratios) and
// the report of the virtual-time figures behind the checks.
type plan struct {
	ops    []op
	warmup []op
	verify func() error
}

var workloads = map[string]*workload{
	"substrate": substrateWorkload,
	"pipeline":  pipelineWorkload,
	"recovery":  recoveryWorkload,
}

// op is one simulation run on its own kernel.
type op struct {
	// name describes the op's inputs, for messages and the
	// determinism self-test.
	name string
	// class groups ops for per-class reporting (vizapp.op_ms.*).
	class string
	run   func(*opCtx) error
}

// opCtx is what an op sees of the harness. With tracing off, tr and
// lay are nil and the op records nothing beyond its own checks.
type opCtx struct {
	id   int
	span int // the op's own span, parent of the op's calls
	tr   *tracer
	lay  *layers
	// detail asks for a span per message call (Send, RecvFull, ...);
	// the traced run sets it for the first round only, which holds
	// every op type once, to keep the span log to a few MB.
	detail bool
}

// checkError is an output that disagrees with the benchmark's own
// computation: the run completed but its result is wrong.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

const (
	// minOps keeps at least ten samples beyond the p90 of every run.
	minOps = 110
	// maxRunSeconds stops a run after the round in progress once it has
	// measured this long, so a large regression still ends in time.
	maxRunSeconds = 120
)

type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	traced   bool
	outDir   string
}

// result is the one JSON line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rounds sizes a run: whole rounds for about cfg.seconds on the
// reference host, and never fewer ops than minOps.
func (cfg runConfig) rounds(roundLen int) int {
	r := int(math.Round(float64(cfg.seconds) / cfg.workload.roundSeconds))
	if r < 1 {
		r = 1
	}
	if r*roundLen < minOps {
		r = (minOps + roundLen - 1) / roundLen
	}
	return r
}

// roundLen reports how many ops one round of the workload holds.
func roundLen(wl *workload) (int, error) {
	pl, err := wl.prepare(0, 1, nil, nil)
	if err != nil {
		return 0, err
	}
	return len(pl.ops), nil
}

func run(cfg runConfig) (*result, error) {
	wl := cfg.workload
	perRound, err := roundLen(wl)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	rounds := cfg.rounds(perRound)
	if cfg.traced {
		// Traced ops are slower and keep their observers alive with
		// their leaked goroutines, and the first round runs twice; a
		// third of the rounds keeps the run's time and memory near the
		// untraced run's.
		rounds = (rounds + 2) / 3
	}

	pl, setup, err := timedSetup(wl, cfg.seed, rounds)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return runTraced(cfg, pl, perRound)
	}
	ops := pl.ops

	res := &result{Correct: true, Metrics: map[string]metric{}}
	durs := make([]float64, 0, len(ops))
	var total float64
	wall := time.Now()
	for i, o := range ops {
		if i%perRound == 0 && time.Since(wall) > maxRunSeconds*time.Second {
			break
		}
		start := cpuSeconds()
		err := o.run(&opCtx{id: i})
		d := cpuSeconds() - start
		total += d
		durs = append(durs, d*1e3)
		res.account(i, o.name, err)
	}
	res.verify(pl)
	p50, err := percentile(durs, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(durs, 0.9)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["ops_per_s"] = metric{float64(len(durs)) / total, "ops/s"}
	res.Metrics["op_ms_p50"] = metric{p50, "ms"}
	res.Metrics["op_ms_p90"] = metric{p90, "ms"}
	res.Metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
	return res, nil
}

// account folds one op's outcome into the result: a check error makes
// the run incorrect, any other error is a failed op.
func (r *result) account(id int, name string, err error) {
	r.Attempted++
	if err == nil {
		return
	}
	var ce *checkError
	if errors.As(err, &ce) {
		r.Correct = false
	} else {
		r.Failed++
	}
	fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", id, name, err)
}

// verify runs the plan's cross-op checks once the loop is done.
func (r *result) verify(pl *plan) {
	if pl.verify == nil {
		return
	}
	if err := pl.verify(); err != nil {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// timedSetup prepares the inputs and warms up wl.setupReps times and
// reports the median CPU time. The last repetition's plan is kept.
// Each repetition starts on a collected heap, as the one set-up of a
// fresh process does: otherwise the garbage and leaked goroutines of
// the repetitions before it put a GC cycle into every other one, and
// the median flips between the two.
func timedSetup(wl *workload, seed int64, rounds int) (*plan, float64, error) {
	var pl *plan
	times := make([]float64, 0, wl.setupReps)
	for rep := 0; rep < wl.setupReps; rep++ {
		runtime.GC()
		start := cpuSeconds()
		var err error
		pl, err = wl.prepare(seed, rounds, nil, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		// Warm-up pays lazy initialization and cold caches before the
		// timed loop.
		for i, o := range pl.warmup {
			if err := o.run(&opCtx{id: -1}); err != nil {
				return nil, 0, fmt.Errorf("%s warm-up op %d (%s): %w", wl.name, i, o.name, err)
			}
		}
		times = append(times, cpuSeconds()-start)
	}
	med, err := percentile(times, 0.5)
	return pl, med, err
}

// percentile returns the p-quantile of xs by linear interpolation
// between closest ranks. A tail percentile is refused unless at least
// ten samples lie above the interpolation position: with fewer it
// would describe a handful of ops, not a tail.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if beyond := n - 1 - lo; p > 0.5 && beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than ten", p*100, n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if lo >= n-1 {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// rssPeakMB reports the process's peak resident set size.
func rssPeakMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds reports the CPU time the process has used, user and
// system, over all its threads (the GC's included). The benchmark
// times ops with it rather than the wall clock: on a virtual machine
// whose host steals CPU time, wall time swung 30% within minutes on
// identical work, and stolen time is not charged to the process.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// runTraced runs the op list traced, under a CPU profile, and reports
// the per-layer metrics. The first round also runs each op untraced
// just before its traced twin, which gives the tracing overhead on
// identical work at the same heap size.
func runTraced(cfg runConfig, pl *plan, perRound int) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload.name, cfg.seed))
	prof, err := os.Create(base + ".pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	tr := newTracer()
	lay := newLayers()
	// Set-up again, untimed, with its calls into the program traced.
	if _, err := cfg.workload.prepare(cfg.seed, 1, tr, lay); err != nil {
		return nil, err
	}
	var plain, traced float64
	var ms0, ms1, a, b runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	for i, o := range pl.ops {
		first := i < perRound
		if first {
			start := cpuSeconds()
			err := o.run(&opCtx{id: i})
			plain += cpuSeconds() - start
			res.account(i, o.name, err)
		}

		g0 := runtime.NumGoroutine()
		runtime.ReadMemStats(&a)
		start := cpuSeconds()
		sp := tr.begin("op."+o.class, i, 0, -1)
		err := o.run(&opCtx{id: i, span: sp, tr: tr, lay: lay, detail: first})
		tr.end(sp, -1)
		d := cpuSeconds() - start
		runtime.ReadMemStats(&b)
		if first {
			traced += d
		}
		lay.ops++
		lay.allocBytes += b.TotalAlloc - a.TotalAlloc
		lay.mallocs += b.Mallocs - a.Mallocs
		lay.goroutinesLeft += runtime.NumGoroutine() - g0
		lay.classMS[o.class] = append(lay.classMS[o.class], d*1e3)
		res.account(i, o.name, err)
	}
	pprof.StopCPUProfile()
	res.verify(pl)
	runtime.ReadMemStats(&ms1)
	// The live heap at the end is what the run's leaked goroutines
	// hold; collect first so garbage does not blur it.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	shares, samples, err := cpuSharesFile(base + ".pprof")
	if err != nil {
		return nil, err
	}

	lay.gcCycles = ms1.NumGC - ms0.NumGC
	lay.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	lay.heapEnd = live.HeapAlloc
	lay.overhead = traced / plain
	for name, m := range lay.metrics(shares, samples) {
		res.Metrics[name] = m
	}
	return res, nil
}
