package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// runSteady runs every workload of BENCHMARK.json with seeds 1..runs
// for run_seconds each, one process per run, and prints each
// end-to-end metric's median, quartiles, spread and worst deviation
// against its bound. It exits 1 when any spread, setup_s's included,
// exceeds a third of its bound, when a run fails or is incorrect, or
// when the share of failed ops differs between runs.
func runSteady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, each with its own seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "steady: BENCHMARK.json: %v\n", err)
		return 2
	}
	if *runs < 4 {
		fmt.Fprintln(os.Stderr, "steady: -runs must be at least 4 for quartiles")
		return 2
	}

	ok := true
	for _, w := range spec.Workloads {
		wl := w.Name
		values := map[string][]float64{}
		var failShares []string
		for i := 0; i < *runs; i++ {
			seed := int64(i + 1)
			res, err := runOnce(wl, seed, spec.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", wl, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: INCORRECT\n", wl, seed)
				ok = false
			}
			failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			line := fmt.Sprintf("%s seed %d:", wl, seed)
			for _, m := range spec.EndToEnd {
				line += fmt.Sprintf(" %s=%.5g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println(line)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %d s each, failed %s\n", wl, *runs, 1, *runs, spec.RunSeconds, strings.Join(failShares, " "))
		if !sameFailShare(failShares) {
			fmt.Printf("  failed share differs between runs\n")
			ok = false
		}
		fmt.Printf("  %-12s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "worst", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			if len(xs) != *runs {
				fmt.Printf("  %-12s missing from %d of %d runs\n", m.Name, *runs-len(xs), *runs)
				ok = false
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			worst := 0.0
			for _, x := range xs {
				worst = math.Max(worst, math.Abs(x-med)/med)
			}
			verdict := "steady"
			if spread > m.Bound/3 {
				verdict = "UNSTEADY"
				ok = false
			}
			fmt.Printf("  %-12s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%  %s\n",
				m.Name, q1, med, q3, 100*spread, 100*worst, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one benchmark process and parses its last stdout line.
func runOnce(wl string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

// sameFailShare reports whether every run failed the same share of its
// attempted ops ("failed/attempted" strings, compared as fractions).
func sameFailShare(shares []string) bool {
	var f0, a0 int
	for i, s := range shares {
		var f, a int
		if _, err := fmt.Sscanf(s, "%d/%d", &f, &a); err != nil || a == 0 {
			return false
		}
		if i == 0 {
			f0, a0 = f, a
		} else if f*a0 != f0*a {
			return false
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
