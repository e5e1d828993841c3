// Command mosaic-repro regenerates the paper's evaluation — the Sec 3.3
// visibility table, Figures 5–7 of Sec 5.3 and the ablations — at
// configurable scale. It reproduces the paper; it measures nothing about the
// system (that is `bash benchmark/run.sh`, declared in BENCHMARK.json).
//
// Usage:
//
//	mosaic-repro -exp tables|visibility|fig5|fig6|fig7|sweep|lambda|
//	             projections|mechanism|scope|bayes|all
//	             [-pop N] [-sample N] [-epochs N] [-projections N]
//	             [-workers N] [-open-samples N] [-seed N]
//
// The default scales are laptop-sized; raise -pop/-epochs/-projections to
// approach the paper's settings (426k rows, 80 epochs, p=1000). Answers are
// deterministic for a fixed -seed regardless of -workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mosaic/internal/dataset"
	"mosaic/internal/repro"
	"mosaic/internal/swg"
)

// config is the command line: the experiment to run and its scale.
type config struct {
	exp                                                      string
	popN, sampleN, epochs, projections, workers, openSamples int
	seed                                                     int64
}

// errUnknownExp is run's answer to an -exp that names no experiment.
var errUnknownExp = errors.New("unknown experiment")

func main() {
	var c config
	flag.StringVar(&c.exp, "exp", "all", "experiment id (tables, visibility, fig5, fig6, fig7, sweep, lambda, projections, mechanism, scope, bayes, all)")
	flag.IntVar(&c.popN, "pop", 50000, "population rows")
	flag.IntVar(&c.sampleN, "sample", 10000, "spiral sample rows")
	flag.IntVar(&c.epochs, "epochs", 25, "M-SWG training epochs")
	flag.IntVar(&c.projections, "projections", 64, "sliced-W1 projections per ≥2-D marginal")
	flag.IntVar(&c.workers, "workers", 4, "engine intra-query workers (OPEN replicate fan-out, M-SWG training)")
	flag.IntVar(&c.openSamples, "open-samples", 10, "generated samples averaged per OPEN query")
	flag.Int64Var(&c.seed, "seed", 1, "random seed")
	flag.Parse()
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintf(os.Stderr, "mosaic-repro: %v\n", err)
		if errors.Is(err, errUnknownExp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run writes each selected experiment's report to w under a
// "=== name (seconds) ===" header, in paper order.
func run(w io.Writer, c config) error {
	spiral := repro.SpiralConfig{
		PopN: c.popN, SampleN: c.sampleN, Seed: c.seed,
		SWG: swg.Config{
			Hidden: []int{100, 100, 100}, Latent: 2, Lambda: 0.04,
			BatchSize: 500, Projections: c.projections, Epochs: c.epochs,
			Workers: c.workers, Seed: c.seed,
		},
	}
	flights := repro.FlightsConfig{
		PopN: c.popN, OpenSamples: c.openSamples, Workers: c.workers, Seed: c.seed,
		SWG: swg.Config{
			Hidden: []int{50, 50, 50, 50, 50}, Latent: 18, Lambda: 1e-7,
			BatchSize: 500, Projections: c.projections, Epochs: c.epochs,
			Workers: c.workers, Seed: c.seed,
		},
	}

	// In paper order; -exp all runs them top to bottom.
	experiments := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"tables", func() (fmt.Stringer, error) { return tables{}, nil }},
		{"visibility", func() (fmt.Stringer, error) {
			return repro.RunVisibility(repro.VisibilityConfig{Seed: c.seed})
		}},
		{"fig5", func() (fmt.Stringer, error) { return repro.RunFigure5(spiral) }},
		{"fig6", func() (fmt.Stringer, error) {
			return repro.RunFigure6(repro.Fig6Config{Spiral: spiral})
		}},
		{"fig7", func() (fmt.Stringer, error) { return repro.RunFigure7(flights) }},
		{"sweep", func() (fmt.Stringer, error) {
			return repro.RunSweep(repro.SweepConfig{Flights: flights, Queries: 200})
		}},
		{"lambda", func() (fmt.Stringer, error) { return repro.RunAblationLambda(spiral, nil) }},
		{"projections", func() (fmt.Stringer, error) {
			return repro.RunAblationProjections(spiral, nil)
		}},
		{"mechanism", func() (fmt.Stringer, error) { return repro.RunAblationMechanism(flights) }},
		{"scope", func() (fmt.Stringer, error) { return repro.RunAblationMarginalScope(flights) }},
		{"bayes", func() (fmt.Stringer, error) { return repro.RunAblationBayesVsSWG(flights) }},
	}
	ran := false
	for _, e := range experiments {
		if c.exp != "all" && c.exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "=== %s (%.1fs) ===\n%s\n\n", e.name, time.Since(start).Seconds(), res)
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknownExp, c.exp)
	}
	return nil
}

// tables prints the static Table 1 / Table 2 inventories.
type tables struct{}

func (tables) String() string {
	out := "Table 1 — flights attributes (name, abbrev, encoded dims)\n"
	dims := map[string]int{"carrier": len(dataset.Carriers), "taxi_out": 1, "taxi_in": 1, "elapsed_time": 1, "distance": 1}
	abbrevs := map[string]string{"carrier": "C", "taxi_out": "O", "taxi_in": "I", "elapsed_time": "E", "distance": "D"}
	for i := 0; i < dataset.FlightsSchema.Len(); i++ {
		name := dataset.FlightsSchema.At(i).Name
		out += fmt.Sprintf("  %-14s %-3s %d\n", name, abbrevs[name], dims[name])
	}
	out += "\nTable 2 — evaluation queries\n"
	for _, q := range repro.FlightQueries {
		out += fmt.Sprintf("  %d  %s\n", q.ID, q.SQL)
	}
	return out
}
