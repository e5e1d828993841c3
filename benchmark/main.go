// Command benchmark is the repository's benchmark: four closed-loop
// workloads over Mosaic's public surfaces, seven end-to-end metrics each,
// and a traced pass that attributes time to layers. README.md explains the
// workloads, the metrics and the rules that keep the numbers steady;
// BENCHMARK.json at the repository root declares them to the driver.
//
//	bash benchmark/run.sh --workload fleet_mix --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

var workloadNames = []string{"closed_scan", "open_flights", "ingest_refit", "fleet_mix"}

// Blocks are sized to take about this long at the commit that added the
// benchmark, on the 2-core reference sandbox; --seconds buys blocks at this
// price, and never fewer than minBlocks. Work per block is fixed: a faster
// system finishes sooner, it does not get more work.
const (
	nominalBlockSeconds = 2.2
	minBlocks           = 9
	setupReps           = 5
	latencyFloorMs      = 5.0
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string // where the trace and the detailed report go
}

// releaser is implemented by workloads whose generated inputs are only
// needed by setup and can be dropped before the measured phase.
type releaser interface{ release() }

func newWorkload(name string, smoke bool, blocks int) (workload, error) {
	switch name {
	case "closed_scan":
		return &closedScan{}, nil
	case "open_flights":
		return newOpenFlights(smoke), nil
	case "ingest_refit":
		return newIngestRefit(smoke, blocks), nil
	case "fleet_mix":
		return &fleetMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sampleStats describes the samples behind one end-to-end metric.
type sampleStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// report is the detailed record written beside the trace.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Commit     string                 `json:"git_commit"`
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"nproc"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	CPUModel   string                 `json:"cpu_model"`
	Sizes      map[string]int         `json:"data_sizes"`
	Blocks     int                    `json:"blocks"`
	Clients    int                    `json:"clients"`
	Traced     bool                   `json:"traced"`
	GenerateS  float64                `json:"generate_and_oracle_s"`
	MeasuredS  float64                `json:"measured_phase_s"`
	Slowdown   float64                `json:"slowdown_vs_reference"`
	Result     result                 `json:"result"`
	Samples    map[string]sampleStats `json:"samples"`
	LayerShare map[string]float64     `json:"layer_self_share,omitempty"`
	EstErrors  map[string][2]float64  `json:"estimate_error_pct_and_ceiling,omitempty"`
	Failures   []string               `json:"failures,omitempty"`
}

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase on the reference machine")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, prints the per-layer metrics; 0: the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the smoke test")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for the trace and the detailed report")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of runs of this binary and compare them (see NOISE.md)")
	flag.Parse()
	cfg.trace = trace != 0

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if selfcheck {
		if err := runSelfcheck(cfg.seconds, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printTable(os.Stderr, rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// run executes one workload once and returns its report.
func run(cfg config) (*report, error) {
	blocks := max(minBlocks, int(math.Round(float64(cfg.seconds)/nominalBlockSeconds)))
	reps := setupReps
	if cfg.smoke {
		blocks, reps = 2, 1
	}
	if cfg.trace {
		reps = 1
	}
	w, err := newWorkload(cfg.workload, cfg.smoke, blocks)
	if err != nil {
		return nil, err
	}
	sz := sizing{smoke: cfg.smoke, blocks: blocks}
	initProbe() // before anything else allocates (refspeed.go)
	genStart := time.Now()
	if err := w.generate(cfg.seed, sz); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	generateS := time.Since(genStart).Seconds()
	defer w.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Set-up, several times: one set-up is a single shot, the median of
	// several is not. Each replaces the previous system; the last one is
	// measured.
	var setupS []float64
	for i := 0; i < reps; i++ {
		w.close()
		quiesce()
		probe()
		start := time.Now()
		err := w.setup(tr)
		secs := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		probe()
		setupS = append(setupS, secs)
	}
	if r, ok := w.(releaser); ok {
		r.release()
	}

	start := time.Now()
	m := runBlocks(w, sz, tr)
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		Sizes: w.dataSizes(), Blocks: blocks, Clients: clients(), Traced: cfg.trace,
		GenerateS: generateS, MeasuredS: time.Since(start).Seconds(), Failures: m.failures,
	}
	ms := func(xs []float64) []float64 { return scale(xs, 1e3) }
	rep.Samples = map[string]sampleStats{
		"setup_s":      stats(setupS, "s"),
		"read_ms":      stats(ms(m.readS), "ms"),
		"write_ms":     stats(ms(m.writeS), "ms"),
		"cold_read_s":  stats(m.coldS, "s"),
		"ops_per_s":    stats(m.opsPerS, "1/s"),
		"live_heap_mb": stats([]float64{m.heapMB}, "MiB"),
		"probe_ms":     stats(ms(probeS), "ms"),
	}
	values := map[string]float64{
		"setup_s":      quantile(setupS, 0.5),
		"read_ms_p50":  quantile(m.readS, 0.5) * 1e3,
		"read_ms_p90":  quantile(m.readS, 0.9) * 1e3,
		"ops_per_s":    quantile(m.opsPerS, 0.5),
		"cold_read_s":  quantile(m.coldS, 0.5),
		"write_ms_p50": quantile(m.writeS, 0.5) * 1e3,
		"live_heap_mb": m.heapMB,
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		values, err = w.layers(tr)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		// Tracing overhead: every other serial read of the run recorded a
		// span, the rest did not.
		plain, traced := quantile(m.readS, 0.5), quantile(m.tracedReadS, 0.5)
		values["trace_overhead_pct"] = 100 * (traced - plain) / plain
		rep.Samples["traced_read_ms"] = stats(ms(m.tracedReadS), "ms")
		rep.LayerShare = layerShares(tr)
		if err := tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	}
	if mw, ok := w.(*modelWorkload); ok {
		rep.EstErrors = mw.observedErrors()
	}

	// A latency median under the floor is timer and scheduler noise, not a
	// measurement: at full size that is an error in the benchmark itself.
	// The floor applies to the medians as measured.
	var underFloor []string
	if !cfg.smoke && !cfg.trace {
		for _, name := range []string{"read_ms_p50", "write_ms_p50", "cold_read_s"} {
			v := values[name]
			if name == "cold_read_s" {
				v *= 1e3
			}
			if v < latencyFloorMs {
				underFloor = append(underFloor, fmt.Sprintf("%s is %.3f ms as measured, under the %.0f ms floor", name, v, latencyFloorMs))
			}
		}
	}

	// Every time and rate is reported at reference speed (refspeed.go); the
	// samples above stay as measured.
	rep.Slowdown = slowdown()
	atReferenceSpeed(defs, values, rep.Slowdown)

	rep.Result = result{Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		rep.Result.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	rep.Result.Correct = m.failed == 0 && len(underFloor) == 0
	rep.Failures = append(rep.Failures, underFloor...)
	if err := writeReport(cfg.outDir, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func stats(xs []float64, unit string) sampleStats {
	return sampleStats{N: len(xs), Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75), Unit: unit}
}

// layerShares is each layer's share of the replayed reads' time: the summed
// self time of its spans over the summed length of the replay roots.
func layerShares(tr *tracer) map[string]float64 {
	byLayer, total := tr.selfTimes("replay.read")
	out := make(map[string]float64, len(byLayer))
	for l, s := range byLayer {
		if total > 0 {
			out[l] = s / total
		}
	}
	return out
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := "report-" + rep.Workload + ".json"
	if rep.Traced {
		name = "report-" + rep.Workload + "-traced.json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// printTable renders the report for people.
func printTable(out *os.File, rep *report) {
	fmt.Fprintf(out, "workload %s  seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q\n",
		rep.Workload, rep.Seed, rep.Commit, rep.GoVersion, rep.NumCPU, rep.GoMaxProcs, rep.CPUModel)
	fmt.Fprintf(out, "blocks %d  clients %d  inputs and oracle %.1f s  measured phase %.1f s  sizes %v\n",
		rep.Blocks, rep.Clients, rep.GenerateS, rep.MeasuredS, rep.Sizes)
	fmt.Fprintf(out, "metrics are at reference speed: this run was %.3f× slower than the reference; samples are as measured\n", rep.Slowdown)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, name := range sortedKeys(rep.Result.Metrics) {
		v := rep.Result.Metrics[name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintln(tw, "samples\tn\tq1\tmedian\tq3\tunit")
	for _, name := range sortedKeys(rep.Samples) {
		s := rep.Samples[name]
		fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%s\n", name, s.N, s.Q1, s.Median, s.Q3, s.Unit)
	}
	if len(rep.LayerShare) > 0 {
		fmt.Fprintln(tw, "layer\tshare of replayed read time (self time)")
		for _, l := range sortedKeys(rep.LayerShare) {
			fmt.Fprintf(tw, "%s\t%.1f %%\n", l, 100*rep.LayerShare[l])
		}
	}
	if len(rep.EstErrors) > 0 {
		fmt.Fprintln(tw, "estimate\tworst error %\tceiling %")
		for _, k := range sortedKeys(rep.EstErrors) {
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\n", k, rep.EstErrors[k][0], rep.EstErrors[k][1])
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "operations attempted %d, failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gitCommit reads the checked-out commit from .git, without running git;
// the driver's checkout is not a repository, and then it is "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
