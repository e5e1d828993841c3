package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/value"
)

var partialKinds = []sql.AggKind{sql.AggCount, sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax}

// clonePartial deep-copies one aggregate's states.
func clonePartial(st *exec.PartialStates) *exec.PartialStates {
	return &exec.PartialStates{
		Kind:   st.Kind,
		Count:  append([]float64(nil), st.Count...),
		SumW:   append([]float64(nil), st.SumW...),
		SumWX:  append([]float64(nil), st.SumWX...),
		MinMax: append([]value.Value(nil), st.MinMax...),
		Seen:   append([]bool(nil), st.Seen...),
	}
}

// randFloat draws floats across the full dynamic range, including subnormals,
// ±Inf, and NaN (normalized to the canonical NaN — the codec does not
// preserve NaN payloads, and no aggregate can observe them).
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Float64frombits(rng.Uint64()&^(uint64(0x7FF)<<52) | uint64(rng.Intn(2))<<63) // subnormal or zero
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return math.NaN()
	default:
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) {
			return math.NaN()
		}
		return f
	}
}

func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(4) {
	case 0:
		return value.Int(int64(rng.Uint64()))
	case 1:
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return value.Float(f)
	case 2:
		return value.Bool(rng.Intn(2) == 0)
	default:
		buf := make([]byte, rng.Intn(12))
		for i := range buf {
			buf[i] = byte(' ' + rng.Intn(95))
		}
		return value.Text(string(buf))
	}
}

// randPartial builds one aggregate's states for n groups by accumulating
// random weighted inputs through the real PartialStates.Accumulate.
func randPartial(rng *rand.Rand, kind sql.AggKind, n, accums int) *exec.PartialStates {
	st := exec.NewPartialStates(kind, n)
	for i := 0; i < accums; i++ {
		g := rng.Intn(n)
		w := randFloat(rng)
		var v value.Value // COUNT takes no input
		switch kind {
		case sql.AggSum, sql.AggAvg:
			v = value.Float(randFloat(rng))
		case sql.AggMin, sql.AggMax:
			v = randValue(rng)
		}
		if err := st.Accumulate(g, v, w); err != nil {
			panic(err) // every input above is numeric where the kind needs it
		}
	}
	return st
}

// bitsEqual compares floats by bit pattern — the codec's contract is
// bit-exactness, which float equality cannot express (-0 == +0 under ==).
// The one sanctioned exception: all NaNs are equal, because the wire form
// canonicalizes NaN payload bits and no aggregate can observe them.
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// finalizedEqual compares finalized outputs by hash key, with the same
// NaN-payload exemption as bitsEqual for float results.
func finalizedEqual(a, b value.Value) bool {
	if a.HashKey() == b.HashKey() {
		return true
	}
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat())
	}
	return false
}

func statesBitIdentical(t *testing.T, tag string, got, want *exec.PartialStates) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("%s: kind %v, want %v", tag, got.Kind, want.Kind)
	}
	check := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", tag, name, len(g), len(w))
		}
		for i := range g {
			if !bitsEqual(g[i], w[i]) {
				t.Errorf("%s: %s[%d] = %x, want %x", tag, name, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	check("Count", got.Count, want.Count)
	check("SumW", got.SumW, want.SumW)
	check("SumWX", got.SumWX, want.SumWX)
	if len(got.Seen) != len(want.Seen) {
		t.Fatalf("%s: Seen length %d, want %d", tag, len(got.Seen), len(want.Seen))
	}
	for i := range got.Seen {
		if got.Seen[i] != want.Seen[i] {
			t.Errorf("%s: Seen[%d] = %v, want %v", tag, i, got.Seen[i], want.Seen[i])
		}
	}
	if len(got.MinMax) != len(want.MinMax) {
		t.Fatalf("%s: MinMax length %d, want %d", tag, len(got.MinMax), len(want.MinMax))
	}
	for i := range got.MinMax {
		if !finalizedEqual(got.MinMax[i], want.MinMax[i]) {
			t.Errorf("%s: MinMax[%d] = %s, want %s", tag, i, got.MinMax[i], want.MinMax[i])
		}
	}
}

// roundTripMergeCheck is the property both the unit test and the fuzz target
// assert: serializing shard A's states, shipping them through JSON, decoding,
// and merging with shard B must be bit-identical (states AND finalized
// outputs) to merging the original in-process states — the exact guarantee
// that makes fleet answers equal to Options.Shards: N.
func roundTripMergeCheck(t *testing.T, a, b *exec.PartialStates, n int) {
	t.Helper()
	ref := clonePartial(a)
	for g := 0; g < n; g++ {
		ref.MergeGroup(g, b, g)
	}

	w, err := EncodePartialStates(a, n)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 PartialStatesWire
	if err := json.Unmarshal(raw, &w2); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartialStates(w2, n)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	statesBitIdentical(t, "pre-merge", got, a)
	for g := 0; g < n; g++ {
		got.MergeGroup(g, b, g)
	}
	statesBitIdentical(t, "post-merge", got, ref)
	gv, rv := make([]value.Value, n), make([]value.Value, n)
	got.FinalizeInto(gv, 1)
	ref.FinalizeInto(rv, 1)
	for g := range gv {
		if !finalizedEqual(gv[g], rv[g]) {
			t.Errorf("group %d finalizes to %s, want %s", g, gv[g], rv[g])
		}
	}
}

// TestPartialStatesRoundTripDeterministic pins the codec on a fixed seed for
// every aggregate kind — the always-on companion of the fuzz target.
func TestPartialStatesRoundTripDeterministic(t *testing.T) {
	for _, kind := range partialKinds {
		rng := rand.New(rand.NewSource(42))
		const n = 7
		a := randPartial(rng, kind, n, 64)
		b := randPartial(rng, kind, n, 64)
		roundTripMergeCheck(t, a, b, n)
	}
}

// TestPartialRoundTripRebuildsGroupKeys: EncodePartial omits the gather keys
// and DecodePartial rebuilds them from the key values, so the decoded key
// space can never diverge from what travelled.
func TestPartialRoundTripRebuildsGroupKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := &exec.ShardPartial{Rows: 3}
	for g := 0; g < 4; g++ {
		kv := []value.Value{randValue(rng), value.Null()}
		p.KeyVals = append(p.KeyVals, kv)
		p.Keys = append(p.Keys, exec.GroupKey(kv))
	}
	p.States = []*exec.PartialStates{
		randPartial(rng, sql.AggCount, 4, 16),
		randPartial(rng, sql.AggAvg, 4, 16),
	}
	w, err := EncodePartial(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Generation != 9 || w.Rows != 3 {
		t.Fatalf("header = %+v", w)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 PartialResponse
	if err := json.Unmarshal(raw, &w2); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartial(&w2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != p.Rows || len(got.Keys) != len(p.Keys) {
		t.Fatalf("decoded shape %d keys/%d rows, want %d/%d", len(got.Keys), got.Rows, len(p.Keys), p.Rows)
	}
	for g := range p.Keys {
		if got.Keys[g] != p.Keys[g] {
			t.Errorf("rebuilt key[%d] = %q, want %q", g, got.Keys[g], p.Keys[g])
		}
	}
	for ai := range p.States {
		statesBitIdentical(t, "states", got.States[ai], p.States[ai])
	}
}

// TestDecodePartialStatesRejectsLengthMismatch: a shard answer whose arrays
// do not cover the advertised group count must fail decoding loudly, never
// zero-fill into a silently wrong merge.
func TestDecodePartialStatesRejectsLengthMismatch(t *testing.T) {
	st := exec.NewPartialStates(sql.AggSum, 3)
	w, err := EncodePartialStates(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.SumW = w.SumW[:2]
	if _, err := DecodePartialStates(w, 3); err == nil {
		t.Error("truncated sum_w decoded without error")
	}
	if _, err := DecodePartialStates(PartialStatesWire{Kind: "median"}, 1); err == nil {
		t.Error("unknown kind decoded without error")
	}
}

// FuzzPartialStatesRoundTrip drives the scatter-gather wire codec with
// randomized states: whatever a shard accumulates, serialize → JSON →
// deserialize → merge must be bit-identical to the in-process merge.
func FuzzPartialStatesRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint16(32))
	f.Add(int64(2), uint8(1), uint8(1), uint16(100))
	f.Add(int64(3), uint8(2), uint8(16), uint16(7))
	f.Add(int64(4), uint8(3), uint8(3), uint16(0))
	f.Add(int64(5), uint8(4), uint8(9), uint16(255))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, nGroups uint8, accums uint16) {
		kind := partialKinds[int(kindSel)%len(partialKinds)]
		n := int(nGroups)%32 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randPartial(rng, kind, n, int(accums)%512)
		b := randPartial(rng, kind, n, int(accums)%512)
		roundTripMergeCheck(t, a, b, n)
	})
}
