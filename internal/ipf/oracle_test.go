package ipf

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// oracleSlots buckets the sample's rows by m's cells through HashKey
// strings: one slot per cell, in cell order, seeded with the cell's count;
// each row joins the slot its snapped values key to, or a zero-target slot
// of its own per distinct key, appended in first-appearance order.
func oracleSlots(t *testing.T, sample *table.Table, m *marginal.Marginal) []cellGroup {
	t.Helper()
	keyOf := func(vals []value.Value) string {
		var b strings.Builder
		for _, v := range vals {
			b.WriteString(v.HashKey())
			b.WriteByte('\x1f')
		}
		return b.String()
	}
	var slots []*cellGroup
	byKey := map[string]*cellGroup{}
	for _, c := range m.Cells() {
		g := &cellGroup{target: c.Count}
		slots = append(slots, g)
		byKey[keyOf(c.Vals)] = g
	}
	snap := sample.Snapshot()
	vals := make([]value.Value, len(m.Attrs))
	for i := 0; i < snap.Len(); i++ {
		for ai, a := range m.Attrs {
			j, _ := sample.Schema().Index(a)
			vals[ai] = snap.Value(i, j)
		}
		snapped, err := m.SnapVals(vals)
		if err != nil {
			t.Fatal(err)
		}
		k := keyOf(snapped)
		g, ok := byKey[k]
		if !ok {
			g = &cellGroup{}
			byKey[k] = g
			slots = append(slots, g)
		}
		g.rows = append(g.rows, i)
	}
	out := make([]cellGroup, len(slots))
	for i, g := range slots {
		out[i] = *g
	}
	return out
}

// oracleWorld is a sample with seed weights and marginals that reach every
// bucketing case: a TEXT cell the sample never stored (unreachable mass),
// sample values outside every cell (zero targets), a binned INT column
// against FLOAT midpoint cells, NULL cells, -0 against a 0 cell, NaN, and a
// 2-D marginal.
func oracleWorld(t *testing.T) (*table.Table, []*marginal.Marginal) {
	t.Helper()
	sc := schema.MustNew(
		schema.Attribute{Name: "g", Kind: value.KindText},
		schema.Attribute{Name: "n", Kind: value.KindInt},
		schema.Attribute{Name: "z", Kind: value.KindFloat},
	)
	gs := []value.Value{value.Text("a"), value.Text("b"), value.Text("c"), value.Null()}
	zs := []value.Value{value.Float(0.5), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(2), value.Null()}
	rng := rand.New(rand.NewSource(3))
	sample := table.New("s", sc)
	for i := 0; i < 200; i++ {
		n := value.Int(int64(rng.Intn(40)))
		switch rng.Intn(20) {
		case 0:
			n = value.Null()
		case 1:
			n = value.Int(95) // outside every bin cell
		}
		row := []value.Value{gs[rng.Intn(len(gs))], n, zs[rng.Intn(len(zs))]}
		if err := sample.AppendWeighted(row, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	add := func(m *marginal.Marginal, count float64, vals ...value.Value) {
		t.Helper()
		if err := m.Add(vals, count); err != nil {
			t.Fatal(err)
		}
	}
	mg, _ := marginal.New("mg", []string{"g"})
	add(mg, 300, value.Text("a"))
	add(mg, 500, value.Text("b"))
	add(mg, 200, value.Text("never")) // no sample row stores it
	add(mg, 50, value.Null())
	mn, _ := marginal.New("mn", []string{"n"})
	if err := mn.SetBinWidth("n", 10); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{3, 17, 25, 33} {
		add(mn, 250+v, value.Float(v)) // FLOAT cells at the midpoints 5, 15, 25, 35
	}
	add(mn, 40, value.Null())
	mgz, _ := marginal.New("mgz", []string{"g", "z"})
	add(mgz, 120, value.Text("a"), value.Float(0.5))
	add(mgz, 80, value.Text("a"), value.Float(0)) // the sample holds -0, a different key
	add(mgz, 90, value.Text("b"), value.Float(math.NaN()))
	add(mgz, 60, value.Text("b"), value.Null())
	add(mgz, 70, value.Text("c"), value.Float(2))
	add(mgz, 30, value.Null(), value.Float(0.5))
	return sample, []*marginal.Marginal{mg, mn, mgz}
}

// TestFitMatchesHashKeyOracle: FitContext's bucketing through GroupIDs and
// Marginal.Index gives the weights and Result, bit for bit, of bucketing
// every row by HashKey strings.
func TestFitMatchesHashKeyOracle(t *testing.T) {
	sample, ms := oracleWorld(t)
	for _, keep := range []bool{false, true} {
		opts := Options{KeepUnreachableTargets: keep, MaxIters: 50}
		got, gotRes, err := FitContext(context.Background(), sample, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		slots := make([][]cellGroup, len(ms))
		for mi, m := range ms {
			slots[mi] = oracleSlots(t, sample, m)
		}
		want, wantRes, err := rake(context.Background(), ms, slots, sample.Weights(), opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if gotRes != wantRes {
			t.Errorf("keep=%v: Result %+v, oracle %+v", keep, gotRes, wantRes)
		}
		if gotRes.UnreachableMass == 0 {
			t.Errorf("keep=%v: the fixture reaches no unreachable cell", keep)
		}
		if len(got) != len(want) {
			t.Fatalf("keep=%v: %d weights, oracle %d", keep, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("keep=%v: weight %d = %v, oracle %v", keep, i, got[i], want[i])
			}
		}
	}
}
