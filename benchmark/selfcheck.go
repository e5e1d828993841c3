package main

// -selfcheck: the benchmark measures its own noise. It runs this binary ten
// times per workload, each run with another seed, splits the runs into two
// interleaved sets of five, and holds every bound in BENCHMARK.json to the
// rule it was set by: at least the spread of the ten runs, and at least twice
// the gap between the two sets' medians. NOISE.md is its committed output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json selfcheck needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

const selfcheckRuns = 10

func runSelfcheck(seconds int, seed int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := filepath.Join("benchmark", "out", "selfcheck") // the runs' detailed reports
	// values[workload][metric] = one value per run, in run order; slow[workload]
	// = each run's reference-speed factor.
	values := make(map[string]map[string][]float64)
	slow := make(map[string][]float64)
	for _, w := range workloadNames {
		values[w] = make(map[string][]float64)
	}
	for i := 0; i < selfcheckRuns; i++ {
		for _, w := range workloadNames {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "-out", out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, nil
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", i, w, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("run %d of %s: %w", i, w, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("run %d of %s: %d operations failed", i, w, res.Failed)
			}
			for name, v := range res.Metrics {
				values[w][name] = append(values[w][name], v.Value)
			}
			var rep report
			raw, err := os.ReadFile(filepath.Join(out, "report-"+w+".json"))
			if err == nil {
				err = json.Unmarshal(raw, &rep)
			}
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, w, err)
			}
			slow[w] = append(slow[w], rep.Slowdown)
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d of %s done\n", i+1, selfcheckRuns, w)
		}
	}

	fmt.Printf("# Noise study\n\n")
	fmt.Printf("`-selfcheck` output: %d runs per workload of the same binary, `--seconds %d`, seeds %d to %d, "+
		"run in turn over the four workloads. Set A is the even runs, set B the odd runs. "+
		"`spread` is the distance between the first and third quartile of all %d values over their median "+
		"(quartiles as Python's `statistics.quantiles(values, n=4)` gives them); `gap` is how far set B's median "+
		"is from set A's, as a share of set A's. A row passes when the bound in `BENCHMARK.json` is at least the spread "+
		"and at least twice the gap. Times and rates are at reference speed (`refspeed.go`), as the benchmark reports them; "+
		"`as measured` is the spread the same ten runs show before that division.\n\n",
		selfcheckRuns, seconds, seed, seed+selfcheckRuns-1, selfcheckRuns)
	fmt.Printf("%s, %s, nproc %d, GOMAXPROCS %d, commit %s.\n\n", cpuModel(), runtime.Version(), runtime.NumCPU(), clients(), gitCommit())
	ok := true
	for _, w := range workloadNames {
		fmt.Printf("## %s\n\n", w)
		fmt.Printf("The probe's own spread over these runs: %.2f %%.\n\n", 100*spreadOf(slow[w]))
		fmt.Println("| metric | unit | A median (q1–q3) | B median (q1–q3) | gap | spread | as measured | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, d := range bf.EndToEnd {
			all := values[w][d.Name]
			var a, b []float64
			for i, v := range all {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			qa, qb := pyQuartiles(a), pyQuartiles(b)
			gap := math.Abs(qb[1]-qa[1]) / qa[1]
			spread := spreadOf(all)
			measured := append([]float64(nil), all...)
			for i := range measured {
				switch d.Unit {
				case "us", "ms", "s":
					measured[i] *= slow[w][i]
				case "1/s":
					measured[i] /= slow[w][i]
				}
			}
			verdict := "pass"
			if d.Bound < spread || d.Bound < 2*gap {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("| `%s` | %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %.2f %% | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				d.Name, d.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*gap, 100*spread, 100*spreadOf(measured), 100*d.Bound, verdict)
		}
		fmt.Println()
	}
	if !ok {
		return fmt.Errorf("a bound is under the spread, or under twice the gap, of its metric")
	}
	return nil
}

// spreadOf is the distance between the first and third quartile of xs over
// their median.
func spreadOf(xs []float64) float64 {
	q := pyQuartiles(xs)
	return (q[2] - q[0]) / q[1]
}

// pyQuartiles returns the three quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the driver applies.
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j, delta := i*(m+1)/4, i*(m+1)%4
		j = min(max(j, 1), m-1)
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
