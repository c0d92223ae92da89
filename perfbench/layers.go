package main

import (
	"strings"
	"time"

	"hpsockets/internal/core"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
)

// layers accumulates the traced run's per-layer counts. Per-op
// metrics divide by the ops that could observe the count: kernel-side
// counts exist only where the benchmark builds the kernel or receives
// it through PipelineConfig.Hook (not on recovery, whose harness builds
// its kernel privately; see README).
type layers struct {
	ops int // traced ops

	// sim and runtime
	kernelOps      int // ops whose kernel the benchmark could reach
	events, procs  uint64
	parks          uint64
	parksByLayer   map[string]uint64 // park-ledger label prefix -> parks
	runNs          int64             // host time inside RunAll / RunPipeline
	goroutinesLeft int
	allocBytes     uint64
	mallocs        uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapEnd        uint64
	overhead       float64

	// netsim and core
	netOps      int // ops whose frame counts the benchmark could read
	frames      uint64
	wireBytes   uint64
	dialNs      int64
	dials       int
	rttNs       map[string]int64 // "<transport>.<size>" -> host ns
	rttN        map[string]int   // "<transport>.<size>" -> round trips
	streamNs    map[string]int64 // transport -> host ns
	streamBytes map[string]int64 // transport -> bytes

	// vizapp: op class -> traced op host ms
	classMS map[string][]float64

	// datacutter, scenario and chaos on recovery
	recoveryOps     int
	redispatch      uint64
	redials         uint64
	duplicates      uint64
	delivered       uint64
	redelivered     uint64
	scenarioLoadNs  int64
	scenarioLoads   int
	chaosGenerateNs int64
	chaosGenerates  int
}

func newLayers() *layers {
	return &layers{
		parksByLayer: map[string]uint64{},
		rttNs:        map[string]int64{},
		rttN:         map[string]int{},
		streamNs:     map[string]int64{},
		streamBytes:  map[string]int64{},
		classMS:      map[string][]float64{},
	}
}

// addKernel folds one finished kernel and its park ledger.
func (l *layers) addKernel(k *sim.Kernel, led *profile.Ledger, run time.Duration) {
	l.kernelOps++
	l.events += k.EventsFired()
	l.procs += k.ProcsSpawned()
	l.runNs += int64(run)
	for _, e := range led.Edges() {
		l.parks += e.Parks
		prefix, _, _ := strings.Cut(e.Edge, "/")
		l.parksByLayer[prefix] += e.Parks
	}
}

func (l *layers) addDial(d time.Duration) { l.dialNs += int64(d); l.dials++ }

func (l *layers) addRTT(kind core.Kind, size int, d time.Duration, trips int) {
	key := kind.String() + "." + sizeLabel(size)
	l.rttNs[key] += int64(d)
	l.rttN[key] += trips
}

func (l *layers) addStream(kind core.Kind, d time.Duration, n int) {
	l.streamNs[kind.String()] += int64(d)
	l.streamBytes[kind.String()] += int64(n)
}

// rttSizes are the ping-pong sizes reported as core.rtt_us.*.
var rttSizes = []int{4, 2048, 16384}

// opClasses are the pipeline op classes reported as vizapp.op_ms.*.
var opClasses = []string{"complete", "partial", "zoom"}

// cpuBuckets are the packages reported as cpu.<bucket>.
var cpuBuckets = []string{"runtime", "sim", "netsim", "ktcp", "via", "core", "cluster",
	"datacutter", "vizapp", "fault", "chaos", "scenario", "hpsmon", "bench", "other"}

// parkLayers are the park-ledger label prefixes reported as
// <prefix>.parks_per_op.
var parkLayers = []string{"ktcp", "via", "socketvia", "netsim", "cluster", "datacutter", "vizapp"}

func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// metrics renders every per-layer metric. A count a workload cannot
// observe reads 0; README lists which metric applies where.
func (l *layers) metrics(shares map[string]float64, samples int) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("sim.events_per_op", per(float64(l.events), l.kernelOps), "count")
	put("sim.procs_per_op", per(float64(l.procs), l.kernelOps), "count")
	put("sim.parks_per_op", per(float64(l.parks), l.kernelOps), "count")
	put("sim.ns_per_event", per(float64(l.runNs), int(l.events)), "ns")
	put("sim.goroutines_left_per_op", per(float64(l.goroutinesLeft), l.ops), "count")
	for _, p := range parkLayers {
		put(p+".parks_per_op", per(float64(l.parksByLayer[p]), l.kernelOps), "count")
	}

	put("runtime.alloc_kb_per_op", per(float64(l.allocBytes)/1024, l.ops), "KB")
	put("runtime.mallocs_per_op", per(float64(l.mallocs), l.ops), "count")
	put("runtime.gc_cycles", float64(l.gcCycles), "count")
	put("runtime.gc_pause_ms", float64(l.gcPauseNs)/1e6, "ms")
	put("runtime.heap_mb_end", float64(l.heapEnd)/(1<<20), "MB")

	put("netsim.frames_per_op", per(float64(l.frames), l.netOps), "count")
	put("netsim.wire_mb_per_op", per(float64(l.wireBytes)/(1<<20), l.netOps), "MB")

	put("core.dial_us", per(float64(l.dialNs)/1e3, l.dials), "us")
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		t := kind.String()
		for _, s := range rttSizes {
			key := t + "." + sizeLabel(s)
			put("core.rtt_us."+key, per(float64(l.rttNs[key])/1e3, l.rttN[key]), "us")
		}
		mb := float64(l.streamBytes[t]) / (1 << 20)
		v := 0.0
		if mb > 0 {
			v = float64(l.streamNs[t]) / 1e6 / mb
		}
		put("core.stream_ms_per_mb."+t, v, "ms/MB")
		for _, cl := range opClasses {
			p50 := 0.0
			if xs := l.classMS[cl+"."+t]; len(xs) > 0 {
				p50, _ = percentile(xs, 0.5)
			}
			put("vizapp.op_ms."+cl+"."+t, p50, "ms")
		}
	}

	put("datacutter.redispatch_per_op", per(float64(l.redispatch), l.recoveryOps), "count")
	put("datacutter.redials_per_op", per(float64(l.redials), l.recoveryOps), "count")
	put("datacutter.duplicates_per_op", per(float64(l.duplicates), l.recoveryOps), "count")
	attempts := l.delivered + l.redelivered + l.duplicates
	put("datacutter.delivered_per_attempt", per(float64(l.delivered), int(attempts)), "ratio")
	put("datacutter.delivery_attempts_per_op", per(float64(attempts), l.recoveryOps), "count")
	put("scenario.load_ms", per(float64(l.scenarioLoadNs)/1e6, l.scenarioLoads), "ms")
	put("chaos.generate_us", per(float64(l.chaosGenerateNs)/1e3, l.chaosGenerates), "us")

	for _, b := range cpuBuckets {
		put("cpu."+b, shares[b], "share")
	}
	put("cpu.samples", float64(samples), "count")
	put("trace.overhead", l.overhead, "ratio")
	return m
}
