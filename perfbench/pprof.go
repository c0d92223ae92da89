package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuSharesFile buckets a CPU profile by package with the installed
// toolchain's `go tool pprof -top`. It returns each bucket's share of
// the flat samples and the number of samples.
func cpuSharesFile(path string) (map[string]float64, int, error) {
	flat, err := pprofTop(path)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	shares := map[string]float64{}
	for b, v := range flat {
		if total > 0 {
			shares[b] = float64(v) / float64(total)
		}
	}
	return shares, int(total), nil
}

// pprofTop runs `go tool pprof -top` on a CPU profile and sums the
// flat sample counts of its rows per bucket (bucketOf).
func pprofTop(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads the rows of `pprof -top` output with sample counts
// ("flat flat% sum% cum cum% symbol", the symbol maybe followed by
// "(inline)") into flat counts per bucket. It fails unless the rows
// sum to the header's "Total samples".
func parseTop(out []byte) (map[string]int64, error) {
	flat := map[string]int64{}
	total, sum := int64(-1), int64(0)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if _, after, ok := strings.Cut(line, "Total samples = "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(after), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -top header %q: %v", line, err)
			}
			total = n
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue // the column header
		}
		sym := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[bucketOf(sym)] += n
		sum += n
	}
	if total < 0 {
		return nil, fmt.Errorf("pprof -top output has no sample total:\n%s", out)
	}
	if sum != total {
		return nil, fmt.Errorf("pprof -top rows sum to %d of %d samples", sum, total)
	}
	return flat, nil
}

// bucketOf maps a Go symbol to its benchmark bucket: the repository
// module's packages by their last path element, the Go runtime
// (including its unqualified assembly routines such as aeshashbody and
// gcWriteBarrier), this benchmark ("bench"), and everything else
// ("other").
func bucketOf(sym string) string {
	pkg := packageOf(sym)
	switch {
	case !strings.Contains(sym, "."):
		return "runtime"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "hpsockets/perfbench"):
		return "bench"
	case strings.HasPrefix(pkg, "hpsockets/internal/"):
		name := strings.TrimPrefix(pkg, "hpsockets/internal/")
		for _, b := range cpuBuckets {
			if name == b {
				return b
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol such as
// "hpsockets/internal/sim.(*Kernel).Run" or
// "hpsockets/internal/sim.NewQueue[go.shape.int]".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}
