// Spiral visualizes Fig 5 in the terminal: the 2-D spiral population, the
// spatially biased sample, and the M-SWG-generated sample, rendered as
// ASCII density plots, plus the marginal-fit metrics.
//
// Run with:
//
//	go run ./examples/spiral
package main

import (
	"fmt"
	"log"

	"mosaic/internal/repro"
	"mosaic/internal/swg"
	"mosaic/internal/table"
)

func main() {
	setup, err := repro.BuildSpiral(repro.SpiralConfig{
		PopN: 20000, SampleN: 4000, Bias: 8, Bins: 32, Seed: 2,
		SWG: swg.Config{
			Hidden: []int{64, 64, 64}, Latent: 2, Lambda: 0.04,
			BatchSize: 400, Projections: 32, Epochs: 20, StepsPerEpoch: 8,
			LR: 0.002, Seed: 2,
		},
	})
	must(err)
	gen, err := setup.Model.Generate("mswg", 4000)
	must(err)

	fmt.Println("population (spiral):")
	plot(setup.Pop)
	fmt.Println("\nbiased sample (right half over-represented 8:1):")
	plot(setup.Sample)
	fmt.Println("\nM-SWG generated sample:")
	plot(gen)

	res, err := repro.Figure5From(setup)
	must(err)
	fmt.Println()
	fmt.Println(res)
}

// plot renders a 60×24 ASCII density map of the table's (x, y) columns.
func plot(t *table.Table) {
	const w, h = 60, 24
	xs, err := t.FloatColumn("x")
	must(err)
	ys, err := t.FloatColumn("y")
	must(err)
	grid := make([]int, w*h)
	maxC := 0
	for i := range xs {
		cx := int((xs[i] + 0.3) / 1.6 * float64(w))
		cy := int((1.3 - ys[i]) / 1.8 * float64(h))
		if cx < 0 || cx >= w || cy < 0 || cy >= h {
			continue
		}
		grid[cy*w+cx]++
		if grid[cy*w+cx] > maxC {
			maxC = grid[cy*w+cx]
		}
	}
	shades := []byte(" .:-=+*#%@")
	for row := 0; row < h; row++ {
		line := make([]byte, w)
		for col := 0; col < w; col++ {
			c := grid[row*w+col]
			if c == 0 {
				line[col] = ' '
				continue
			}
			idx := 1 + c*(len(shades)-2)/max(1, maxC)
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			line[col] = shades[idx]
		}
		fmt.Println("  " + string(line))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
