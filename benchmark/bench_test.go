package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload end to end at smoke sizes, untraced and
// traced, and checks that what it prints is what BENCHMARK.json declares:
// every metric once, with its unit, under a well-formed name, and no failed
// operation.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloadNames))
	}
	wantE2E := make(map[string]string)
	for _, m := range d.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	wantLayer := make(map[string]string)
	for _, m := range d.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if len(wantE2E) != len(d.EndToEnd) || len(wantLayer) != len(d.PerLayer) {
		t.Error("BENCHMARK.json uses a metric name twice")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(config{workload: w.Name, seed: 7, seconds: 1, trace: traced, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced,
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.Name, traced, len(rep.Result.Metrics), len(want))
			}
			for name, v := range rep.Result.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", w.Name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s: metric %q is printed but not declared", w.Name, name)
				} else if unit != v.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, name, v.Unit, unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %q is %v", w.Name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q is %v, must be positive", w.Name, name, v.Value)
				}
			}
		}
	}
}

// TestCorruptedAnswerIsAFailure swaps one oracle answer for another and
// checks that every read of that shape is then counted as failed and
// contributes no latency.
func TestCorruptedAnswerIsAFailure(t *testing.T) {
	w := &closedScan{}
	sz := sizing{smoke: true, blocks: 2}
	if err := w.generate(3, sz); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	clean := runBlocks(w, sizing{smoke: true, blocks: 1}, nil)
	if clean.failed != 0 {
		t.Fatalf("unmodified run failed %d operations: %v", clean.failed, clean.failures)
	}
	if err := w.setup(nil); err != nil { // a fresh system: block 0's writes must land once
		t.Fatal(err)
	}
	w.want["filter"] = w.want["arith"]
	bad := runBlocks(w, sizing{smoke: true, blocks: 1}, nil)
	var filters int
	for _, i := range w.order[0] {
		if w.shapes[i].name == "filter" {
			filters++
		}
	}
	filters += clients() // one per client in the concurrent phase
	if bad.failed != filters {
		t.Errorf("%d operations failed, want the %d filter reads", bad.failed, filters)
	}
	if got, want := len(bad.readS), len(clean.readS)-(filters-clients()); got != want {
		t.Errorf("%d read latencies recorded, want %d: a failed read must contribute none", got, want)
	}
}

// TestCeilingsGuardAccuracy holds every pinned error ceiling far enough
// under 100 % that an empty, zero or several-times-off estimate cannot pass.
func TestCeilingsGuardAccuracy(t *testing.T) {
	for _, ceilings := range []map[string]float64{flightsCeilings, spiralCeilings} {
		for key, c := range ceilings {
			if c > 50 {
				t.Errorf("%s: ceiling %.1f %% is too loose to catch an accuracy loss", key, c)
			}
		}
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("pyQuartiles = %v", got)
	}
}

// TestSelfTimes checks the attribution on a hand-built trace: a 100-unit
// root with a 10-unit child and an opaque 80-unit child that two parallel,
// overlapping replays open up.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "replay.read", Start: 0, End: 100e9},
		{ID: 1, Parent: 0, Name: "sql.parse", Start: 0, End: 10e9},
		{ID: 2, Parent: 0, Name: "core.query", Start: 10e9, End: 90e9},
		{ID: 3, Parent: 2, Name: "swg.generate", Start: 100e9, End: 140e9, Replay: true},
		{ID: 4, Parent: 2, Name: "swg.generate", Start: 100e9, End: 140e9, Replay: true},
	}}
	by, total := tr.selfTimes("replay.read")
	if total != 100 {
		t.Fatalf("root total %v, want 100", total)
	}
	want := map[string]float64{"replay": 10, "sql": 10, "core": 40, "swg": 40}
	for l, w := range want {
		if math.Abs(by[l]-w) > 1e-9 {
			t.Errorf("layer %s: self time %v, want %v", l, by[l], w)
		}
	}
}
