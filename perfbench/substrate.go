package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/netsim"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
)

// substrateWorkload: two-node core.Conn runs, TCP and SocketVIA
// alternating. Each op dials, ping-pongs real seeded bytes at every
// Figure 4(a) size plus 16 KB, streams at one size of a ladder that
// holds every Figure 4(b) size, and closes. It exercises sim, netsim,
// ktcp, via and socketvia and nothing above them.
var substrateWorkload = &workload{
	name:         "substrate",
	roundSeconds: 0.58,
	setupReps:    15,
	prepare:      prepareSubstrate,
}

// ppSizes are the Figure 4(a) ping-pong sizes plus 16 KB, the largest
// distribution block the pipeline ladder shares with the micro sizes.
var ppSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384}

// streamSizes are the Figure 4(b) sizes (powers of two from 4 B to
// 64 KB) with the 1.5x point between each pair, so op costs spread
// evenly instead of clustering at a few sizes.
var streamSizes = func() []int {
	var out []int
	for s := 4; s <= 64<<10; s *= 2 {
		out = append(out, s)
		if s < 64<<10 {
			out = append(out, s+s/2)
		}
	}
	return out
}()

const (
	ppIters    = 8  // round trips per ping-pong size
	streamMsgs = 48 // messages per stream
	payloadLen = 1 << 20
)

// Paper figures and the tolerances of the repository's calibration
// tests (internal/core/calibration_test.go).
const (
	svLatMinUS, svLatMaxUS = 9.0, 10.5   // SocketVIA 4 B one-way ≈ 9.5 µs
	latRatioMin, latRatio  = 4.2, 5.8    // TCP/SocketVIA 4 B latency ≈ 5
	svBWMin, svBWMax       = 735.0, 790. // SocketVIA 64 KB ≈ 763 Mbps
	bwRatioMin, bwRatioMax = 1.35, 1.65  // SocketVIA/TCP 64 KB ≈ 1.5
	linkMbps               = 1250.0
)

// payload is the seeded byte pool every message is a window of.
type payload []byte

func newPayload(seed int64) payload {
	p := make(payload, payloadLen)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// msg is message i of size bytes for a stream keyed by key.
func (p payload) msg(key uint64, size, i int) []byte {
	span := uint64(len(p) - size)
	off := (key + uint64(i)*2654435761) % span
	return p[off : off+uint64(size)]
}

type substrateOp struct {
	kind   core.Kind
	stream int    // stream message size
	key    uint64 // payload window key
}

// substrateFigures collects the virtual-time results every op reports;
// they are deterministic per transport, so the run-level ratio checks
// compare the last value of each.
type substrateFigures struct {
	lat4 map[core.Kind]sim.Time
	bw64 map[core.Kind]float64
}

func prepareSubstrate(seed int64, rounds int, _ *tracer, _ *layers) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := newPayload(rng.Int63())
	figs := &substrateFigures{lat4: map[core.Kind]sim.Time{}, bw64: map[core.Kind]float64{}}
	mk := func(so substrateOp) op {
		return op{
			name:  fmt.Sprintf("%s stream %d B key %#x", so.kind, so.stream, so.key),
			class: so.kind.String(),
			run:   func(c *opCtx) error { return runSubstrateOp(c, pl, so, figs) },
		}
	}
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, si := range rng.Perm(len(streamSizes)) {
			for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
				ops = append(ops, mk(substrateOp{kind: kind, stream: streamSizes[si], key: rng.Uint64()}))
			}
		}
	}
	warmup := []op{
		mk(substrateOp{kind: core.KindTCP, stream: 64 << 10}),
		mk(substrateOp{kind: core.KindSocketVIA, stream: 64 << 10}),
	}
	return &plan{ops: ops, warmup: warmup, verify: figs.verify}, nil
}

// verify checks the cross-transport ratios of the paper's Section 5.1.
func (f *substrateFigures) verify() error {
	tcp, sv := f.lat4[core.KindTCP], f.lat4[core.KindSocketVIA]
	if sv <= 0 || tcp <= 0 {
		return checkf("no 4 B latency measured (tcp=%v socketvia=%v)", tcp, sv)
	}
	if r := float64(tcp) / float64(sv); r < latRatioMin || r > latRatio {
		return checkf("TCP/SocketVIA 4 B latency ratio %.2f outside [%g, %g]", r, latRatioMin, latRatio)
	}
	btcp, bsv := f.bw64[core.KindTCP], f.bw64[core.KindSocketVIA]
	if btcp <= 0 || bsv <= 0 {
		return checkf("no 64 KB bandwidth measured (tcp=%.0f socketvia=%.0f)", btcp, bsv)
	}
	if r := bsv / btcp; r < bwRatioMin || r > bwRatioMax {
		return checkf("SocketVIA/TCP 64 KB bandwidth ratio %.2f outside [%g, %g]", r, bwRatioMin, bwRatioMax)
	}
	fmt.Fprintf(os.Stderr, "perfbench: substrate virtual figures: 4 B one-way socketvia %.2f us, tcp %.2f us (ratio %.2f); 64 KB stream socketvia %.1f Mbps, tcp %.1f Mbps (ratio %.2f)\n",
		sv.Micros(), tcp.Micros(), float64(tcp)/float64(sv), bsv, btcp, bsv/btcp)
	return nil
}

// checkPayload compares received bytes with the expected window.
// Callers add their context only on failure, keeping the timed loop
// free of formatting.
func checkPayload(got, want []byte) error {
	if !bytes.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				return checkf("byte %d of %d differs", i, len(want))
			}
		}
		return checkf("got %d bytes, want %d", len(got), len(want))
	}
	return nil
}

// checkOneWay and checkStream hold a transport's own figures to the
// paper: SocketVIA's 4 B latency and 64 KB bandwidth, and the link
// rate as the ceiling of every stream.
func checkOneWay(kind core.Kind, size int, oneWay sim.Time) error {
	if kind == core.KindSocketVIA && size == 4 {
		if us := oneWay.Micros(); us < svLatMinUS || us > svLatMaxUS {
			return checkf("SocketVIA 4 B one-way %.2f us outside [%g, %g]", us, svLatMinUS, svLatMaxUS)
		}
	}
	return nil
}

func checkStream(kind core.Kind, size int, mbps float64) error {
	if mbps <= 0 || mbps > linkMbps {
		return checkf("%s %d B stream at %.1f Mbps, outside (0, %g]", kind, size, mbps, linkMbps)
	}
	if kind == core.KindSocketVIA && size == 64<<10 && (mbps < svBWMin || mbps > svBWMax) {
		return checkf("SocketVIA 64 KB stream %.1f Mbps outside [%g, %g]", mbps, svBWMin, svBWMax)
	}
	return nil
}

// sizeLabel names a ping-pong size in per-layer metric names.
func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

func runSubstrateOp(c *opCtx, pl payload, so substrateOp, figs *substrateFigures) error {
	tr := c.tr
	prof := core.CLANProfile()
	sp := tr.begin("sim.NewKernel", c.id, c.span, -1)
	k := sim.NewKernel()
	tr.end(sp, -1)
	var led *profile.Ledger
	if c.lay != nil {
		led = profile.NewLedger()
		led.Attach(k)
	}
	sp = tr.begin("netsim.New", c.id, c.span, -1)
	net := netsim.New(k, prof.Wire)
	tr.end(sp, -1)
	sp = tr.begin("cluster.New", c.id, c.span, -1)
	cl := cluster.New(k, net)
	cl.AddNode("a", cluster.DefaultConfig())
	cl.AddNode("b", cluster.DefaultConfig())
	tr.end(sp, -1)
	sp = tr.begin("core.NewFabric", c.id, c.span, -1)
	fab := core.NewFabric(cl, so.kind, prof)
	tr.end(sp, -1)
	l := fab.Endpoint("b").Listen(1)

	var (
		opErr            error
		cliDone, srvDone bool
		oneWay           = make([]sim.Time, len(ppSizes))
		mbps             float64
		streamHost       time.Time
	)
	fail := func(err error) {
		if opErr == nil {
			opErr = err
		}
	}
	runSpan := tr.begin("sim.RunAll", c.id, c.span, k.Now())
	call := func(name string, p *sim.Proc) int {
		if !c.detail {
			return 0
		}
		return tr.begin(name, c.id, runSpan, p.Now())
	}
	done := func(id int, p *sim.Proc) { tr.end(id, p.Now()) }
	streamKey := so.key ^ 0x5bd1e995

	k.Go("srv", func(p *sim.Proc) {
		id := call("core.Accept", p)
		conn, err := l.Accept(p)
		done(id, p)
		if err != nil {
			fail(fmt.Errorf("accept: %w", err))
			return
		}
		buf := make([]byte, 64<<10)
		for _, s := range ppSizes {
			for i := 0; i < ppIters; i++ {
				want := pl.msg(so.key, s, i)
				id := call("core.RecvFull", p)
				_, err := conn.RecvFull(p, buf[:s])
				done(id, p)
				if err != nil {
					fail(fmt.Errorf("server ping %d B: %w", s, err))
					return
				}
				if err := checkPayload(buf[:s], want); err != nil {
					fail(fmt.Errorf("server ping %d B #%d: %w", s, i, err))
					return
				}
				// Echo the expected window: Send may retain its
				// argument, so the receive buffer is never sent.
				id = call("core.Send", p)
				err = conn.Send(p, want)
				done(id, p)
				if err != nil {
					fail(fmt.Errorf("server pong %d B: %w", s, err))
					return
				}
			}
		}
		// The stream is read the way the Figure 4(b) measurement reads
		// it: from the first byte to end of stream.
		total := 0
		start := sim.Time(-1)
		want := so.stream * streamMsgs
		for {
			id := call("core.Recv", p)
			n, err := conn.Recv(p, buf)
			done(id, p)
			if start < 0 && n > 0 {
				start = p.Now()
			}
			for j := 0; j < n; {
				off := total + j
				m := pl.msg(streamKey, so.stream, off/so.stream)[off%so.stream:]
				if len(m) > n-j {
					m = m[:n-j]
				}
				if e := checkPayload(buf[j:j+len(m)], m); e != nil {
					fail(fmt.Errorf("stream of %d B messages at byte %d: %w", so.stream, off, e))
					return
				}
				j += len(m)
			}
			total += n
			if err != nil {
				if !errors.Is(err, io.EOF) {
					fail(fmt.Errorf("stream: %w", err))
					return
				}
				break
			}
		}
		if total != want {
			fail(checkf("stream of %d x %d B delivered %d bytes", streamMsgs, so.stream, total))
			return
		}
		mbps = sim.BitsPerSec(int64(total), p.Now()-start)
		if c.lay != nil {
			c.lay.addStream(so.kind, time.Since(streamHost), total)
		}
		id = call("core.Close", p)
		err = conn.Close(p)
		done(id, p)
		if err != nil {
			fail(fmt.Errorf("server close: %w", err))
			return
		}
		srvDone = true
	})
	k.Go("cli", func(p *sim.Proc) {
		id := call("core.Dial", p)
		hs := time.Now()
		conn, err := fab.Endpoint("a").Dial(p, "b", 1)
		if c.lay != nil {
			c.lay.addDial(time.Since(hs))
		}
		done(id, p)
		if err != nil {
			fail(fmt.Errorf("dial: %w", err))
			return
		}
		p.Sleep(sim.Millisecond)
		buf := make([]byte, 64<<10)
		for si, s := range ppSizes {
			start, hs := p.Now(), time.Now()
			for i := 0; i < ppIters; i++ {
				msg := pl.msg(so.key, s, i)
				id := call("core.Send", p)
				err := conn.Send(p, msg)
				done(id, p)
				if err != nil {
					fail(fmt.Errorf("client ping %d B: %w", s, err))
					return
				}
				id = call("core.RecvFull", p)
				_, err = conn.RecvFull(p, buf[:s])
				done(id, p)
				if err != nil {
					fail(fmt.Errorf("client pong %d B: %w", s, err))
					return
				}
				if err := checkPayload(buf[:s], msg); err != nil {
					fail(fmt.Errorf("client pong %d B #%d: %w", s, i, err))
					return
				}
			}
			oneWay[si] = (p.Now() - start) / sim.Time(2*ppIters)
			if c.lay != nil {
				c.lay.addRTT(so.kind, s, time.Since(hs), ppIters)
			}
		}
		streamHost = time.Now()
		for j := 0; j < streamMsgs; j++ {
			id := call("core.Send", p)
			err := conn.Send(p, pl.msg(streamKey, so.stream, j))
			done(id, p)
			if err != nil {
				fail(fmt.Errorf("client stream: %w", err))
				return
			}
		}
		id = call("core.Close", p)
		err = conn.Close(p)
		done(id, p)
		if err != nil {
			fail(fmt.Errorf("client close: %w", err))
			return
		}
		cliDone = true
	})
	hs := time.Now()
	k.RunAll()
	runHost := time.Since(hs)
	tr.end(runSpan, k.Now())

	if c.lay != nil {
		c.lay.addKernel(k, led, runHost)
		c.lay.netOps++
		for _, n := range cl.Nodes() {
			c.lay.frames += n.Port().Sent()
			c.lay.wireBytes += uint64(n.Port().TxBytes())
		}
	}
	if opErr != nil {
		return opErr
	}
	if !cliDone || !srvDone {
		return fmt.Errorf("%s op deadlocked at %v (client done %v, server done %v)", so.kind, k.Now(), cliDone, srvDone)
	}
	for si, s := range ppSizes {
		if err := checkOneWay(so.kind, s, oneWay[si]); err != nil {
			return err
		}
	}
	if err := checkStream(so.kind, so.stream, mbps); err != nil {
		return err
	}
	figs.lat4[so.kind] = oneWay[0]
	if so.stream == 64<<10 {
		figs.bw64[so.kind] = mbps
	}
	return nil
}
