package repro

import (
	"fmt"
	"strings"

	"mosaic/internal/core"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/value"
)

// VisibilityConfig tunes the Sec 3.3 false-negative/false-positive
// experiment.
type VisibilityConfig struct {
	Seed        int64
	OpenSamples int
	SWG         swg.Config
}

func (c VisibilityConfig) withDefaults() VisibilityConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpenSamples <= 0 {
		c.OpenSamples = 5
	}
	if len(c.SWG.Hidden) == 0 {
		c.SWG = swg.Config{
			Hidden: []int{48, 48}, Latent: 6, Epochs: 40,
			BatchSize: 256, Projections: 32, StepsPerEpoch: 8,
			Lambda: 0.0005, LR: 0.003, Seed: c.Seed,
		}
	}
	return c
}

// VisibilityRow is one visibility level's outcome.
type VisibilityRow struct {
	Visibility     string
	FalseNegatives int // distinct population tuples absent from the answer
	FalsePositives int // distinct answer tuples absent from the population
}

// VisibilityResult reproduces the Sec 3.3 table empirically: CLOSED and
// SEMI-OPEN return exactly the sample's tuples (n false negatives, zero
// false positives); OPEN trades false negatives for possible false
// positives.
type VisibilityResult struct {
	MissingFromSample int // the paper's n
	Rows              []VisibilityRow
}

// String renders the table in the paper's layout.
func (r *VisibilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec 3.3 visibility trade-off (n = %d tuples missing from the sample)\n", r.MissingFromSample)
	fmt.Fprintf(&b, "%-10s %-15s %-15s %s\n", "", "False Negative", "False Positive", "Assumption")
	for _, row := range r.Rows {
		assumption := "Open"
		if row.Visibility == "CLOSED" {
			assumption = "Closed"
		}
		fmt.Fprintf(&b, "%-10s %-15d %-15d %s\n", row.Visibility, row.FalseNegatives, row.FalsePositives, assumption)
	}
	return b.String()
}

// RunVisibility builds a discrete world where the sample misses entire
// categories, answers a distinct-tuple query at each visibility, and counts
// FN/FP against the known population.
func RunVisibility(cfg VisibilityConfig) (*VisibilityResult, error) {
	cfg = cfg.withDefaults()
	// The toy sample is tiny (tens of rows); generating |S| rows per
	// replicate (the paper's protocol, sized for 10k-row samples) would
	// undersample the categorical grid, so the replicate size is pinned.
	eng := core.NewEngine(core.Options{
		Seed:          cfg.Seed,
		OpenSamples:   cfg.OpenSamples,
		GeneratedRows: 500,
		SWG:           cfg.SWG,
	})
	if _, err := eng.ExecScript(`
		CREATE GLOBAL POPULATION P (country TEXT, email TEXT);
		CREATE SAMPLE S AS (SELECT * FROM P WHERE email = 'Yahoo');
		CREATE TABLE Truth (country TEXT, email TEXT, n INT);
	`); err != nil {
		return nil, err
	}
	// Population truth: 3 countries × 3 providers.
	type cell struct {
		c, e string
		n    int
	}
	popCells := []cell{
		{"UK", "Yahoo", 200}, {"UK", "Gmail", 150}, {"UK", "AOL", 30},
		{"FR", "Yahoo", 120}, {"FR", "Gmail", 180}, {"FR", "AOL", 20},
		{"DE", "Yahoo", 80}, {"DE", "Gmail", 250}, {"DE", "AOL", 25},
	}
	var truthRows [][]any
	for _, c := range popCells {
		truthRows = append(truthRows, []any{c.c, c.e, c.n})
	}
	if err := eng.Ingest("Truth", truthRows); err != nil {
		return nil, err
	}
	if _, err := eng.ExecScript(`
		CREATE METADATA P_M1 AS (SELECT country, n FROM Truth);
		CREATE METADATA P_M2 AS (SELECT email, n FROM Truth);
	`); err != nil {
		return nil, err
	}
	// The sample: Yahoo tuples only (10 per 40 population tuples).
	var sampleRows [][]any
	for _, c := range popCells {
		if c.e != "Yahoo" {
			continue
		}
		for i := 0; i < c.n/40; i++ {
			sampleRows = append(sampleRows, []any{c.c, c.e})
		}
	}
	if err := eng.Ingest("S", sampleRows); err != nil {
		return nil, err
	}

	popSet := map[string]bool{}
	for _, c := range popCells {
		popSet[c.c+"\x1f"+c.e] = true
	}
	sampleSet := map[string]bool{}
	for _, r := range sampleRows {
		sampleSet[r[0].(string)+"\x1f"+r[1].(string)] = true
	}
	missing := 0
	for k := range popSet {
		if !sampleSet[k] {
			missing++
		}
	}

	res := &VisibilityResult{MissingFromSample: missing}
	for _, vis := range []string{"CLOSED", "SEMI-OPEN", "OPEN"} {
		q := fmt.Sprintf("SELECT %s country, email, COUNT(*) FROM P GROUP BY country, email", vis)
		sel, err := sql.ParseQuery(q)
		if err != nil {
			return nil, err
		}
		out, err := eng.Query(sel)
		if err != nil {
			return nil, err
		}
		ansSet := map[string]bool{}
		for _, row := range out.Rows {
			// Skip all-but-noise groups: OPEN replicate-intersection already
			// prunes unstable tuples, but zero-count groups are not answers.
			if cnt, err := row[2].Float64(); err == nil && cnt <= 0 {
				continue
			}
			ansSet[keyOf2(row[0], row[1])] = true
		}
		fn, fp := 0, 0
		for k := range popSet {
			if !ansSet[k] {
				fn++
			}
		}
		for k := range ansSet {
			if !popSet[k] {
				fp++
			}
		}
		res.Rows = append(res.Rows, VisibilityRow{Visibility: vis, FalseNegatives: fn, FalsePositives: fp})
	}
	return res, nil
}

func keyOf2(a, b value.Value) string {
	return a.AsText() + "\x1f" + b.AsText()
}
