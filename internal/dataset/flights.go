package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// FlightsSchema matches the paper's Table 1: carrier (C, categorical, 14
// values), taxi_out (O), taxi_in (I), elapsed_time (E), and distance (D),
// the continuous attributes rounded to whole numbers.
var FlightsSchema = schema.MustNew(
	schema.Attribute{Name: "carrier", Kind: value.KindText},
	schema.Attribute{Name: "taxi_out", Kind: value.KindInt},
	schema.Attribute{Name: "taxi_in", Kind: value.KindInt},
	schema.Attribute{Name: "elapsed_time", Kind: value.KindInt},
	schema.Attribute{Name: "distance", Kind: value.KindInt},
)

// Carriers are the 14 carrier codes (Table 1's encoded dimensionality of
// 14). 'WN' (Southwest) and 'AA' (American) are the popular carriers the
// paper's queries 5–7 filter on; 'US' and 'F9' are the light hitters of
// query 8.
var Carriers = []string{
	"WN", "DL", "AA", "OO", "UA", "EV", "B6", "AS", "NK", "MQ", "US", "F9", "HA", "VX",
}

// carrierShares is a skewed share per carrier (the paper notes "the carriers
// attribute being categorical and having a skewed distribution in the
// data"). Shares roughly follow the real 2015–16 US domestic shares: WN
// dominates, HA/VX/F9/US are light hitters.
var carrierShares = []float64{
	0.22, 0.16, 0.15, 0.10, 0.09, 0.08, 0.05, 0.035, 0.025, 0.025, 0.02, 0.015, 0.008, 0.007,
}

// FlightsConfig tunes the flights generator.
type FlightsConfig struct {
	N    int // rows (default 50000, sized for a CPU-only laptop; the paper used 426,411)
	Seed int64
}

func (c FlightsConfig) withDefaults() FlightsConfig {
	if c.N <= 0 {
		c.N = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Flights generates a synthetic flights population with the correlation
// structure the experiments depend on: elapsed_time grows linearly with
// distance plus noise (so a long-flight-biased sample inflates AVG(E) and
// AVG(D)); taxi times are right-skewed and mildly carrier-dependent; carrier
// distance profiles differ (regional carriers fly shorter routes).
func Flights(cfg FlightsConfig) *table.Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := table.New("flights", FlightsSchema)

	cum := make([]float64, len(carrierShares))
	var acc float64
	for i, s := range carrierShares {
		acc += s
		cum[i] = acc
	}
	// Per-carrier route-length multiplier: majors fly longer stage lengths.
	routeLen := []float64{
		0.85, 1.15, 1.2, 0.6, 1.3, 0.55, 1.1, 1.0, 0.9, 0.6, 1.0, 0.9, 1.6, 1.2,
	}

	for i := 0; i < cfg.N; i++ {
		u := rng.Float64() * acc
		ci := 0
		for ci < len(cum)-1 && u > cum[ci] {
			ci++
		}
		// Distance: log-normal stage length scaled per carrier, clamped to
		// the contiguous-US range.
		d := math.Exp(rng.NormFloat64()*0.55+6.3) * routeLen[ci]
		if d < 100 {
			d = 100 + rng.Float64()*50
		}
		if d > 2800 {
			d = 2800 - rng.Float64()*200
		}
		// Elapsed: ~35 min overhead + cruise at ~7.6 miles/min with noise.
		e := 35 + d/7.6 + rng.NormFloat64()*14
		if e < 25 {
			e = 25
		}
		// Taxi out: right-skewed, 5–60 min.
		o := 8 + rng.ExpFloat64()*7
		if o > 60 {
			o = 60
		}
		// Taxi in: right-skewed, shorter.
		in := 4 + rng.ExpFloat64()*3.5
		if in > 40 {
			in = 40
		}
		_ = t.Append([]value.Value{
			value.Text(Carriers[ci]),
			value.Int(int64(math.Round(o))),
			value.Int(int64(math.Round(in))),
			value.Int(int64(math.Round(e))),
			value.Int(int64(math.Round(d))),
		})
	}
	return t
}

// BiasedSampleExact draws exactly n tuples where biasFrac of them satisfy
// pred (paper Sec 5.3: "a biased 5 percent sample … with a 95 percent bias,
// meaning 95 percent of the tuples have a long flight time"). If the
// population lacks enough pred-true tuples the sample takes all of them.
func BiasedSampleExact(pop *table.Table, pred expr.Expr, n int, biasFrac float64, name string, seed int64) (*table.Table, error) {
	if n <= 0 || n > pop.Len() {
		return nil, fmt.Errorf("dataset: sample size %d out of range (population %d)", n, pop.Len())
	}
	if biasFrac < 0 || biasFrac > 1 {
		return nil, fmt.Errorf("dataset: bias fraction %g out of [0,1]", biasFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	var trueIdx, falseIdx []int
	i := 0
	var evalErr error
	sc := pop.Schema()
	pop.Scan(func(row []value.Value, _ float64) bool {
		ok, err := expr.Truthy(pred, &expr.Binding{Schema: sc, Row: row})
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			trueIdx = append(trueIdx, i)
		} else {
			falseIdx = append(falseIdx, i)
		}
		i++
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	wantTrue := int(math.Round(float64(n) * biasFrac))
	if wantTrue > len(trueIdx) {
		wantTrue = len(trueIdx)
	}
	wantFalse := n - wantTrue
	if wantFalse > len(falseIdx) {
		return nil, fmt.Errorf("dataset: population has only %d pred-false tuples, need %d", len(falseIdx), wantFalse)
	}
	rng.Shuffle(len(trueIdx), func(a, b int) { trueIdx[a], trueIdx[b] = trueIdx[b], trueIdx[a] })
	rng.Shuffle(len(falseIdx), func(a, b int) { falseIdx[a], falseIdx[b] = falseIdx[b], falseIdx[a] })
	out := table.New(name, sc)
	for _, j := range trueIdx[:wantTrue] {
		if err := out.Append(pop.Row(j)); err != nil {
			return nil, err
		}
	}
	for _, j := range falseIdx[:wantFalse] {
		if err := out.Append(pop.Row(j)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
