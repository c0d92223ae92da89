package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hpsockets/internal/chaos"
	"hpsockets/internal/core"
	"hpsockets/internal/sim"
	"hpsockets/internal/vizapp"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	var xs []float64
	for i := 1; i <= 91; i++ {
		xs = append(xs, float64(i))
	}
	// p90 of 91 samples is the 82nd value exactly: nine lie beyond it.
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 91 samples reported with nine beyond it")
	}
	if _, err := percentile(append(xs, 92), 0.9); err != nil {
		t.Fatalf("p90 of 92 samples, ten beyond it, refused: %v", err)
	}
	for i := 92; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", p90)
	}
	if p50, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || p50 != 2 {
		t.Fatalf("p50 of {3,1,2} = %v, %v; want 2", p50, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// opNames lists a plan's op names, which spell out every input an op
// receives.
func opNames(t *testing.T, wl *workload, seed int64, rounds int) []string {
	t.Helper()
	pl, err := wl.prepare(seed, rounds, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	var out []string
	for _, o := range pl.ops {
		out = append(out, o.name)
	}
	return out
}

func TestSeedDeterminesOpList(t *testing.T) {
	chdirRepoRoot(t)
	for _, wl := range workloads {
		a := opNames(t, wl, 7, 2)
		b := opNames(t, wl, 7, 2)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two op lists from seed 7 differ", wl.name)
		}
		c := opNames(t, wl, 8, 2)
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 7 and 8 give the same op list", wl.name)
		}
		// Every round holds the same ops, only the order differs, so
		// every seed attempts the same work.
		sortedA, sortedC := append([]string(nil), a...), append([]string(nil), c...)
		if wl == substrateWorkload {
			// Substrate ops also carry a seeded payload key.
			for i := range sortedA {
				sortedA[i], _, _ = strings.Cut(sortedA[i], " key ")
				sortedC[i], _, _ = strings.Cut(sortedC[i], " key ")
			}
		}
		if strings.Join(sorted(sortedA), "\n") != strings.Join(sorted(sortedC), "\n") {
			t.Errorf("%s: seeds 7 and 8 attempt different op mixes", wl.name)
		}
	}
	if !bytes.Equal(newPayload(3), newPayload(3)) || bytes.Equal(newPayload(3), newPayload(4)) {
		t.Error("payload bytes are not a function of the seed")
	}
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// chdirRepoRoot runs the test from the repository root, where the
// benchmark reads the scenario library.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Dir(wd)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func TestCheckPayloadCatchesCorruptByte(t *testing.T) {
	pl := newPayload(1)
	want := pl.msg(42, 2048, 3)
	got := append([]byte(nil), want...)
	if err := checkPayload(got, want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	got[1000] ^= 0x01
	if err := checkPayload(got, want); err == nil {
		t.Fatal("a flipped payload byte passed the check")
	}
	if err := checkPayload(want[:len(want)-1], want); err == nil {
		t.Fatal("a truncated payload passed the check")
	}
}

func TestSubstrateOpPassesItsChecks(t *testing.T) {
	pl := newPayload(1)
	figs := &substrateFigures{lat4: map[core.Kind]sim.Time{}, bw64: map[core.Kind]float64{}}
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		if err := runSubstrateOp(&opCtx{}, pl, substrateOp{kind: kind, stream: 64 << 10, key: 9}, figs); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if err := figs.verify(); err != nil {
		t.Fatal(err)
	}
	// A SocketVIA latency or stream outside the paper's figures fails.
	if checkOneWay(core.KindSocketVIA, 4, figs.lat4[core.KindTCP]) == nil {
		t.Error("TCP's 4 B latency passed as SocketVIA's")
	}
	if checkStream(core.KindTCP, 4, 1300) == nil {
		t.Error("a stream above the 1250 Mbps link passed")
	}
}

func TestPipelineChecks(t *testing.T) {
	po := pipelineOp{kind: core.KindSocketVIA, block: 32 << 10, query: "armed"}
	cfg, qs := po.config()
	res := vizapp.RunPipeline(cfg, qs)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := checkPipeline(cfg, qs, res); err != nil {
		t.Fatalf("a real armed run failed its checks: %v", err)
	}

	dropped := res
	dropped.Blocks = append([]int(nil), res.Blocks...)
	dropped.Blocks[1]--
	if _, err := checkPipeline(cfg, qs, dropped); err == nil {
		t.Error("an armed run missing one block passed")
	}

	fast := res
	fast.Done = append(fast.Done[:0:0], res.Done...)
	fast.Done[0] = res.Start[0] + responseLowerBound(cfg, qs[0]) - 1
	if _, err := checkPipeline(cfg, qs, fast); err == nil {
		t.Error("a response below its lower bound passed")
	}
	if lb := responseLowerBound(cfg, qs[0]); lb <= 0 || res.Done[0]-res.Start[0] < lb {
		t.Errorf("lower bound %v against real response %v", lb, res.Done[0]-res.Start[0])
	}
}

func TestRecoveryAccountingCheck(t *testing.T) {
	sc := chaos.Generate(3)
	want := sc.UOWs * sc.BuffersPerUOW
	rep := chaos.Run(sc)
	if !rep.OK() {
		t.Fatalf("chaos seed 3 is not green: %v", rep.Violations)
	}
	if err := checkAccounting(rep, want, sc.ExactlyOnce); err != nil {
		t.Fatalf("a real report failed the accounting check: %v", err)
	}
	for _, d := range []int{-1, 1} {
		off := rep
		off.Produced += d
		if checkAccounting(off, want, sc.ExactlyOnce) == nil {
			t.Errorf("a report with %d buffers produced of %d passed", off.Produced, want)
		}
	}
	lost := rep
	if lost.Delivered > 0 {
		lost.Delivered--
	} else {
		lost.Shed--
	}
	if checkAccounting(lost, want, sc.ExactlyOnce) == nil {
		t.Error("a dropped buffer passed the accounting check")
	}
	twice := rep
	twice.Redelivered = 1
	if checkAccounting(twice, want, true) == nil {
		t.Error("a redelivery under exactly-once passed")
	}
}

// TestCPUSharesFromPprofTop profiles a little real work and buckets
// it through `go tool pprof -top` from the installed toolchain, as the
// traced run does.
func TestCPUSharesFromPprofTop(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if err := runPipelineOp(&opCtx{}, pipelineOp{kind: core.KindTCP, block: 8 << 10, query: "partial"}, &pipelineFigures{tightest: map[string]float64{}}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuSharesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 20 {
		t.Fatalf("a second of pipeline work gave %d samples", samples)
	}
	sum := 0.0
	for b, s := range shares {
		if !slices.Contains(cpuBuckets, b) {
			t.Errorf("bucket %q is not reported", b)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["sim"] == 0 || shares["runtime"] == 0 {
		t.Errorf("pipeline work left sim (%v) or runtime (%v) empty", shares["sim"], shares["runtime"])
	}
}

func TestParseTop(t *testing.T) {
	top := `File: perfbench
Type: samples
Duration: 9.25s, Total samples = 10 
Showing nodes accounting for 10, 100% of 10 total
      flat  flat%   sum%        cum   cum%
         4 40.00% 40.00%          5 50.00%  runtime.casgstatus
         3 30.00% 70.00%          9 90.00%  hpsockets/internal/sim.(*Kernel).Run
         2 20.00% 90.00%          2 20.00%  hpsockets/internal/sim.(*Proc).park (inline)
         1 10.00%   100%          1 10.00%  aeshashbody
`
	flat, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if flat["runtime"] != 5 || flat["sim"] != 5 || len(flat) != 2 {
		t.Errorf("buckets %v, want runtime 5 and sim 5", flat)
	}
	short := strings.Replace(top, "Total samples = 10", "Total samples = 11", 1)
	if _, err := parseTop([]byte(short)); err == nil {
		t.Error("rows summing below the sample total passed")
	}
}

func TestBucketOf(t *testing.T) {
	for sym, want := range map[string]string{
		"hpsockets/internal/sim.(*Kernel).Run":               "sim",
		"hpsockets/internal/sim.NewQueue[go.shape.int]":      "sim",
		"hpsockets/internal/datacutter.(*Group).drive.func1": "datacutter",
		"hpsockets/internal/profile.(*Ledger).Park":          "other",
		"runtime.chanrecv":                                   "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":            "runtime",
		"aeshashbody":               "runtime",
		"main.runSubstrateOp.func2": "bench",
		"bytes.Equal":               "other",
	} {
		if got := bucketOf(sym); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
