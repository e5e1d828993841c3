// Flights demonstrates OPEN query processing on the paper's Sec 5.3
// workload: a 5 % sample of domestic flights that is 95 %-biased toward
// long flights, debiased three ways (raw, IPF, M-SWG) against the true
// population, for a query the bias hurts (AVG elapsed time of long-distance
// flights) and a carrier GROUP BY.
//
// Run with:
//
//	go run ./examples/flights
package main

import (
	"fmt"
	"log"

	"mosaic/internal/exec"
	"mosaic/internal/repro"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
)

func main() {
	setup, err := repro.BuildFlights(repro.FlightsConfig{
		PopN: 30000, OpenSamples: 5, Seed: 3,
		SWG: swg.Config{
			Hidden: []int{50, 50, 50}, Latent: 12, Lambda: 1e-6,
			BatchSize: 300, Projections: 32, Epochs: 12, LR: 0.002, Seed: 3,
		},
	})
	must(err)
	fmt.Printf("flights population %d rows; biased sample %d rows (95%% long flights)\n\n",
		setup.Pop.Len(), setup.SampleN)

	show := func(q string) {
		truthSel, err := sql.ParseQuery(q)
		must(err)
		truthRes, err := exec.Run(setup.Pop, truthSel, exec.Options{})
		must(err)
		fmt.Printf("query: %s\n", q)
		fmt.Printf("truth:\n%s\n", indent(truthRes.String()))
		for _, vis := range []string{"CLOSED", "SEMI-OPEN", "OPEN"} {
			sel, err := sql.ParseQuery(withVis(q, vis))
			must(err)
			res, err := setup.Engine.Query(sel)
			must(err)
			fmt.Printf("%s:\n%s\n", vis, indent(res.String()))
		}
		fmt.Println()
	}

	// Query 3 of Table 2: the biased sample overestimates elapsed time.
	show("SELECT AVG(elapsed_time) FROM Flights WHERE distance > 1000")
	// A carrier GROUP BY in the spirit of queries 5–8.
	show("SELECT carrier, AVG(distance) FROM Flights WHERE carrier IN ('WN', 'AA') GROUP BY carrier ORDER BY carrier")
}

func withVis(q, vis string) string {
	return "SELECT " + vis + " " + q[len("SELECT "):]
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
