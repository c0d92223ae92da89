package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpsockets/internal/chaos"
	"hpsockets/internal/scenario"
)

// recoveryWorkload: the scenario library through scenario.RunFile and
// the chaos sweep's seeds through chaos.Run. It exercises the
// datacutter failure paths — failover re-dispatch, redial, rejoin,
// checkpoints, the exactly-once ledger — with ktcp retransmission,
// fault injection and hpsmon always on.
var recoveryWorkload = &workload{
	name:         "recovery",
	roundSeconds: 1.1,
	setupReps:    33,
	prepare:      prepareRecovery,
}

const (
	// scenarioGlob is the scenario library, read from the repository
	// root the benchmark runs in.
	scenarioGlob = "scenarios/*.yaml"
	// chaosSeeds is the sweep the repository's CI holds green (seeds
	// 0..149): a seed outside it may find a real fault, which would make
	// the op list fail on some workload seeds and not others.
	chaosSeeds = 150
)

func prepareRecovery(seed int64, rounds int, tr *tracer, lay *layers) (*plan, error) {
	paths, err := filepath.Glob(scenarioGlob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario files match %s (run from the repository root)", scenarioGlob)
	}
	sort.Strings(paths)
	var all []op
	for _, path := range paths {
		sp := tr.begin("scenario.Parse", -1, 0, -1)
		start := time.Now()
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := scenario.Parse(filepath.Base(path), data)
		if lay != nil {
			lay.scenarioLoadNs += int64(time.Since(start))
			lay.scenarioLoads++
		}
		tr.end(sp, -1)
		if err != nil {
			return nil, err
		}
		all = append(all, op{name: "scenario " + f.Name, class: "scenario", run: func(c *opCtx) error { return runScenarioOp(c, f) }})
	}
	for s := int64(0); s < chaosSeeds; s++ {
		sp := tr.begin("chaos.Generate", -1, 0, -1)
		start := time.Now()
		sc := chaos.Generate(s)
		if lay != nil {
			lay.chaosGenerateNs += int64(time.Since(start))
			lay.chaosGenerates++
		}
		tr.end(sp, -1)
		all = append(all, op{name: fmt.Sprintf("chaos seed %d", s), class: "chaos", run: func(c *opCtx) error { return runChaosOp(c, sc) }})
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(all)) {
			ops = append(ops, all[i])
		}
	}
	// Warm up on the first scenario file and the first chaos seed.
	return &plan{ops: ops, warmup: []op{all[0], all[len(paths)]}}, nil
}

func runScenarioOp(c *opCtx, f *scenario.File) error {
	sp := c.tr.begin("scenario.RunFile", c.id, c.span, 0)
	res := scenario.RunFile(f)
	c.tr.end(sp, res.Report.End)
	c.lay.addReport(res.Report)
	if !res.OK() {
		return checkf("violations %q, failed assertions %q", res.Report.Violations, res.Failures)
	}
	w := f.Workload
	exactlyOnce := w.ExactlyOnce
	for _, e := range f.Events {
		exactlyOnce = exactlyOnce || e.Action == "restart"
	}
	return checkAccounting(res.Report, w.UOWs*w.BuffersPerUOW, exactlyOnce)
}

func runChaosOp(c *opCtx, sc chaos.Scenario) error {
	sp := c.tr.begin("chaos.Run", c.id, c.span, 0)
	rep := chaos.Run(sc)
	c.tr.end(sp, rep.End)
	c.lay.addReport(rep)
	if !rep.OK() {
		return checkf("violations %q", rep.Violations)
	}
	return checkAccounting(rep, sc.UOWs*sc.BuffersPerUOW, sc.ExactlyOnce || len(sc.Plan.Restarts) > 0)
}

// checkAccounting holds a report to figures the benchmark takes from
// the scenario it handed over: the source produces want buffers
// (units of work times buffers per unit), all of them unless the run
// aborted or its filter group failed; every one was delivered or shed;
// and where exactly-once is armed (asked for, or forced by a restart)
// nothing was delivered twice.
func checkAccounting(rep chaos.Report, want int, exactlyOnce bool) error {
	complete := !rep.Aborted && rep.GroupErr == ""
	if rep.Produced > want || (complete && rep.Produced != want) {
		return checkf("%d buffers produced, want %d (aborted %v, group error %q)", rep.Produced, want, rep.Aborted, rep.GroupErr)
	}
	if complete && rep.Delivered+rep.Shed < want {
		return checkf("delivered %d + shed %d cover less than the %d produced", rep.Delivered, rep.Shed, want)
	}
	if exactlyOnce && rep.Redelivered != 0 {
		return checkf("%d buffers redelivered with exactly-once armed", rep.Redelivered)
	}
	return nil
}

// addReport folds one recovery run's counters. Frames come from the
// report's rendered telemetry table, the only view chaos.Run gives of
// its network.
func (l *layers) addReport(rep chaos.Report) {
	if l == nil {
		return
	}
	l.recoveryOps++
	l.redispatch += rep.Redispatch
	l.redials += rep.Redials
	l.duplicates += rep.Duplicates
	l.delivered += uint64(rep.Delivered)
	l.redelivered += uint64(rep.Redelivered)
	l.netOps++
	l.frames += telemetryCounter(rep.Telemetry, "netsim", "frames.out")
	l.wireBytes += telemetryCounter(rep.Telemetry, "netsim", "bytes.out")
}

// telemetryCounter reads one counter row ("component name value") of
// an hpsmon table; 0 when absent.
func telemetryCounter(table, component, name string) uint64 {
	sc := bufio.NewScanner(strings.NewReader(table))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == component && f[1] == name {
			v, err := strconv.ParseUint(f[2], 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
