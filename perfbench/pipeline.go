package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
	"hpsockets/internal/vizapp"
)

// pipelineWorkload: one vizapp.RunPipeline per op, the paper's
// Figure 5 setup (4 stages, 3 copies, 18 ns/B) at the Figure 7/8
// block sizes over both transports, with complete updates, sequential
// partial updates, zoom queries and runs with the update-rate
// guarantee armed, plus one complete update of the paper's 16 MB image
// per transport. It exercises datacutter, cluster CPU and vizapp on
// top of the substrate; fault and hpsmon stay off.
var pipelineWorkload = &workload{
	name:         "pipeline",
	roundSeconds: 3.4,
	setupReps:    9,
	prepare:      preparePipeline,
}

var (
	pipeBlocks = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	pipeKinds  = []string{"complete", "partial", "zoom", "armed"}
	// figureKinds are the query kinds whose virtual figures are
	// reported: pipeKinds and the paper-size update.
	figureKinds = append(append([]string(nil), pipeKinds...), "paper")
)

const (
	// pipeImage is the image one complete update covers. The paper's
	// 16 MB image at 2 KB blocks costs over a second of host time per
	// update. At 256 KB, and with these query counts, the 48 small op types
	// of a round cost from about 20 to 150 ms with no wide gaps, so the
	// median and p90 do not sit on a jump between two op types. Each op
	// leaves its parked goroutines behind whatever its size, so few,
	// larger ops keep a run's memory down.
	pipeImage = 256 << 10
	// paperImage is the paper's 16 MB image. One complete update of it
	// at paperBlock blocks costs about 0.3 s of host time over
	// SocketVIA and 0.6 s over TCP; it keeps the large pending sets of
	// the figures' image size in the op list.
	paperImage      = 16 << 20
	paperBlock      = 64 << 10
	pipeComputeNs   = 18
	completeQueries = 4
	partialQueries  = 32
	zoomQueries     = 12
	zoomChunks      = 4 // chunks per zoom query, as in Figure 9
	armedQueries    = 6
	// The armed runs offer one complete update every armedPeriod and
	// guarantee each within armedWindow; under Block every block must
	// still arrive, late or not.
	armedPeriod = 20 * sim.Millisecond
	armedWindow = 40 * sim.Millisecond
	// 1250 Mbps moves one byte in 6.4 ns.
	wireNsPerByte = 8 * 1000 / 1250.0
)

type pipelineOp struct {
	kind  core.Kind
	block int
	query string // one of pipeKinds
}

// config builds the op's pipeline configuration and query list.
func (po pipelineOp) config() (vizapp.PipelineConfig, []vizapp.Query) {
	cfg := vizapp.DefaultPipelineConfig(po.kind, po.block)
	cfg.ImageBytes = pipeImage
	cfg.ComputePerByte = pipeComputeNs * sim.Nanosecond
	var qs []vizapp.Query
	switch po.query {
	case "complete":
		for i := 0; i < completeQueries; i++ {
			qs = append(qs, cfg.CompleteQuery())
		}
	case "partial":
		cfg.Sequential = true
		for i := 0; i < partialQueries; i++ {
			qs = append(qs, vizapp.PartialQuery())
		}
	case "zoom":
		cfg.Sequential = true
		for i := 0; i < zoomQueries; i++ {
			qs = append(qs, cfg.ZoomQuery(zoomChunks))
		}
	case "armed":
		cfg.ArrivalPeriod = armedPeriod
		cfg.UpdatePeriod = armedWindow
		for i := 0; i < armedQueries; i++ {
			qs = append(qs, cfg.CompleteQuery())
		}
	case "paper":
		cfg.ImageBytes = paperImage
		qs = append(qs, cfg.CompleteQuery())
	}
	return cfg, qs
}

// class is the per-class reporting key: armed and paper-size runs are
// complete updates.
func (po pipelineOp) class() string {
	q := po.query
	if q == "armed" || q == "paper" {
		q = "complete"
	}
	return q + "." + po.kind.String()
}

func preparePipeline(seed int64, rounds int, _ *tracer, _ *layers) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	var all []pipelineOp
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		for _, b := range pipeBlocks {
			for _, q := range pipeKinds {
				all = append(all, pipelineOp{kind: kind, block: b, query: q})
			}
		}
		all = append(all, pipelineOp{kind: kind, block: paperBlock, query: "paper"})
	}
	figs := &pipelineFigures{tightest: map[string]float64{}}
	mk := func(po pipelineOp) op {
		return op{
			name:  fmt.Sprintf("%s %s %d B blocks", po.query, po.kind, po.block),
			class: po.class(),
			run:   func(c *opCtx) error { return runPipelineOp(c, po, figs) },
		}
	}
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(all)) {
			ops = append(ops, mk(all[i]))
		}
	}
	warmup := []op{
		mk(pipelineOp{kind: core.KindTCP, block: 8 << 10, query: "partial"}),
		mk(pipelineOp{kind: core.KindSocketVIA, block: 8 << 10, query: "partial"}),
	}
	return &plan{ops: ops, warmup: warmup, verify: figs.report}, nil
}

// pipelineFigures keeps the virtual-time results behind the checks:
// per query kind, the smallest ratio of a response to its lower bound.
type pipelineFigures struct {
	queries  int
	tightest map[string]float64
}

func (f *pipelineFigures) add(query string, queries int, tightest float64) {
	f.queries += queries
	if old, ok := f.tightest[query]; !ok || tightest < old {
		f.tightest[query] = tightest
	}
}

func (f *pipelineFigures) report() error {
	fmt.Fprintf(os.Stderr, "perfbench: pipeline virtual figures: %d queries; least response/lower-bound ratio", f.queries)
	for _, q := range figureKinds {
		fmt.Fprintf(os.Stderr, " %s %.2f", q, f.tightest[q])
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

func runPipelineOp(c *opCtx, po pipelineOp, figs *pipelineFigures) error {
	cfg, qs := po.config()
	var (
		k   *sim.Kernel
		led *profile.Ledger
		col *hpsmon.Collector
	)
	if c.lay != nil {
		// The collector counts the frames; it runs metrics only.
		led = profile.NewLedger()
		col = hpsmon.NewCollector("perfbench", hpsmon.Options{})
		cfg.Hook = func(kk *sim.Kernel) {
			k = kk
			led.Attach(k)
			col.Attach(k)
		}
	}
	sp := c.tr.begin("vizapp.RunPipeline", c.id, c.span, 0)
	start := time.Now()
	res := vizapp.RunPipeline(cfg, qs)
	host := time.Since(start)
	c.tr.end(sp, res.End)
	if c.lay != nil {
		c.lay.addKernel(k, led, host)
		reg := col.Registry()
		c.lay.netOps++
		c.lay.frames += uint64(reg.Counter("netsim", "frames.out").Value())
		c.lay.wireBytes += uint64(reg.Counter("netsim", "bytes.out").Value())
	}
	if res.Err != nil {
		return res.Err
	}
	tightest, err := checkPipeline(cfg, qs, res)
	if err != nil {
		return err
	}
	figs.add(po.query, len(qs), tightest)
	return nil
}

// queryBytes lists the block sizes of a query the way the repository
// copies retrieve them: BlockSize each, except that a complete
// update's last block carries the image remainder.
func queryBytes(cfg vizapp.PipelineConfig, q vizapp.Query) []int {
	out := make([]int, q.Blocks)
	for b := range out {
		out[b] = cfg.BlockSize
		if q.Blocks == cfg.CompleteBlocks() && b == q.Blocks-1 {
			out[b] = cfg.ImageBytes - (q.Blocks-1)*cfg.BlockSize
		}
	}
	return out
}

// responseLowerBound is the least response time physics allows a
// query: its blocks are declustered round-robin over cfg.Chains chains
// of 1250 Mbps links, every stage computes ComputePerByte on what it
// handles, and the single visualization node takes every byte. Any
// block crosses three links and three computing stages one after the
// other; the visualization node computes on, and receives, all bytes
// serially; each chain's clipping copy computes on its share serially.
func responseLowerBound(cfg vizapp.PipelineConfig, q vizapp.Query) sim.Time {
	cpb := float64(cfg.ComputePerByte)
	wire := wireNsPerByte * float64(sim.Nanosecond)
	sizes := queryBytes(cfg, q)
	chain := make([]float64, cfg.Chains)
	var total, largest float64
	for b, s := range sizes {
		total += float64(s)
		chain[b%cfg.Chains] += float64(s)
		if float64(s) > largest {
			largest = float64(s)
		}
	}
	lb := 3*largest*wire + 3*largest*cpb
	lb = maxf(lb, total*cpb)
	lb = maxf(lb, total*wire)
	for _, cb := range chain {
		lb = maxf(lb, cb*cpb)
	}
	return sim.Time(lb)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// checkPipeline holds a pipeline result to what the benchmark computes
// on its own: every query completed, none faster than its lower bound,
// and with the update-rate guarantee armed under Block every expected
// block arrived. It also reports the smallest response/bound ratio.
func checkPipeline(cfg vizapp.PipelineConfig, qs []vizapp.Query, res vizapp.Result) (float64, error) {
	if len(res.Done) != len(qs) || len(res.Start) != len(qs) {
		return 0, checkf("%d queries, %d completion times", len(qs), len(res.Done))
	}
	tightest := math.Inf(1)
	for i, q := range qs {
		resp := res.Done[i] - res.Start[i]
		if res.Done[i] <= 0 || resp <= 0 {
			return 0, checkf("query %d never completed (start %v, done %v)", i, res.Start[i], res.Done[i])
		}
		lb := responseLowerBound(cfg, q)
		if resp < lb {
			return 0, checkf("query %d (%d blocks of %d B) answered in %v, below its lower bound %v", i, q.Blocks, cfg.BlockSize, resp, lb)
		}
		tightest = math.Min(tightest, float64(resp)/float64(lb))
	}
	if cfg.UpdatePeriod > 0 {
		for i, q := range qs {
			want := q.Blocks
			if len(res.Blocks) != len(qs) || res.Blocks[i] != want {
				got := -1
				if i < len(res.Blocks) {
					got = res.Blocks[i]
				}
				return 0, checkf("armed query %d received %d of %d blocks under Block", i, got, want)
			}
		}
	}
	return tightest, nil
}
