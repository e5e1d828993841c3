package main

// Input generators. They live here, not in the product tree, so that a later
// change cannot alter the benchmark's inputs by editing product code. Rows
// are Go-native ([]any per row), the form mosaic.DB.Ingest takes.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// synthRows generates the 5-column synthetic relation of BENCH_exec.json:
// text at cardinality 10 / 1k / 100k, an int measure in [xBase, xBase+1000)
// and a float measure in [0, 100).
func synthRows(rng *rand.Rand, n, xBase int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			fmt.Sprintf("g%d", rng.Intn(10)),
			fmt.Sprintf("k%d", rng.Intn(1000)),
			fmt.Sprintf("u%d", rng.Intn(100000)),
			xBase + rng.Intn(1000),
			rng.Float64() * 100,
		}
	}
	return rows
}

const synthSchema = "(c10 TEXT, c1k TEXT, c100k TEXT, x INT, y FLOAT)"

// insertSQL renders rows as one INSERT statement.
func insertSQL(table string, rows [][]any) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			switch x := v.(type) {
			case string:
				b.WriteByte('\'')
				b.WriteString(x)
				b.WriteByte('\'')
			case float64:
				lit := strconv.FormatFloat(x, 'f', -1, 64)
				b.WriteString(lit)
				if !strings.Contains(lit, ".") {
					b.WriteString(".0") // keep the literal a FLOAT
				}
			default:
				fmt.Fprint(&b, x)
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// flightsCarriers are the 14 carrier codes of the paper's Table 1 with a
// skewed share each and a per-carrier route-length multiplier.
var flightsCarriers = []struct {
	code         string
	share, route float64
}{
	{"WN", 0.22, 0.85}, {"DL", 0.16, 1.15}, {"AA", 0.15, 1.2}, {"OO", 0.10, 0.6},
	{"UA", 0.09, 1.3}, {"EV", 0.08, 0.55}, {"B6", 0.05, 1.1}, {"AS", 0.035, 1.0},
	{"NK", 0.025, 0.9}, {"MQ", 0.025, 0.6}, {"US", 0.02, 1.0}, {"F9", 0.015, 0.9},
	{"HA", 0.008, 1.6}, {"VX", 0.007, 1.2},
}

const flightsSchema = "(carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT)"

// flightsRows generates the flights population: elapsed_time grows with
// distance plus noise (so a long-flight-biased sample inflates both), taxi
// times are right-skewed, and carriers differ in route length.
func flightsRows(rng *rand.Rand, n int) [][]any {
	var total float64
	for _, c := range flightsCarriers {
		total += c.share
	}
	rows := make([][]any, n)
	for i := range rows {
		u := rng.Float64() * total
		ci := 0
		for acc := flightsCarriers[0].share; ci < len(flightsCarriers)-1 && u > acc; acc += flightsCarriers[ci].share {
			ci++
		}
		d := math.Exp(rng.NormFloat64()*0.55+6.3) * flightsCarriers[ci].route
		if d < 100 {
			d = 100 + rng.Float64()*50
		}
		if d > 2800 {
			d = 2800 - rng.Float64()*200
		}
		e := math.Max(25, 35+d/7.6+rng.NormFloat64()*14)
		out := math.Min(60, 8+rng.ExpFloat64()*7)
		in := math.Min(40, 4+rng.ExpFloat64()*3.5)
		rows[i] = []any{
			flightsCarriers[ci].code,
			int(math.Round(out)), int(math.Round(in)), int(math.Round(e)), int(math.Round(d)),
		}
	}
	return rows
}

// biasedFlightsSample draws exactly n population rows of which biasFrac
// have elapsed_time > 200 (the paper's 5 % sample with 95 % bias).
func biasedFlightsSample(rng *rand.Rand, pop [][]any, n int, biasFrac float64) [][]any {
	var long, short []int
	for i, r := range pop {
		if r[3].(int) > 200 {
			long = append(long, i)
		} else {
			short = append(short, i)
		}
	}
	rng.Shuffle(len(long), func(a, b int) { long[a], long[b] = long[b], long[a] })
	rng.Shuffle(len(short), func(a, b int) { short[a], short[b] = short[b], short[a] })
	nLong := int(math.Round(float64(n) * biasFrac))
	if nLong > len(long) {
		nLong = len(long)
	}
	out := make([][]any, 0, n)
	for _, i := range long[:nLong] {
		out = append(out, pop[i])
	}
	for _, i := range short[:n-nLong] {
		out = append(out, pop[i])
	}
	return out
}

const spiralSchema = "(x FLOAT, y FLOAT)"

// spiralRows generates the paper's synthetic 2-D population: an Archimedean
// spiral of two turns in roughly the unit square with Gaussian noise.
func spiralRows(rng *rand.Rand, n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		u := rng.Float64()
		theta := 4 * math.Pi * u
		r := 0.05 + 0.45*u
		rows[i] = []any{
			0.5 + r*math.Cos(theta) + rng.NormFloat64()*0.01,
			0.4 + r*math.Sin(theta) + rng.NormFloat64()*0.01,
		}
	}
	return rows
}

// biasedSpiralSample draws n rows without replacement, rows with x > 0.5
// over-represented by the odds factor bias (Efraimidis–Spirakis keys). The
// rows come back in draw order, so a prefix is itself a biased sample.
func biasedSpiralSample(rng *rand.Rand, pop [][]any, n int, bias float64) [][]any {
	type keyed struct {
		i   int
		key float64
	}
	keys := make([]keyed, len(pop))
	for i, r := range pop {
		w := 1.0
		if r[0].(float64) > 0.5 {
			w = bias
		}
		keys[i] = keyed{i, -rng.ExpFloat64() / w}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	out := make([][]any, n)
	for j := range out {
		out[j] = pop[keys[j].i]
	}
	return out
}

// shuffled returns a shuffled copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
