// Package mechanism implements sampling mechanisms (paper Sec 3): the
// probability Pr_S(t) that a global-population tuple enters a sample. A
// known mechanism lets SEMI-OPEN queries reweight tuples by 1/Pr_S(t)
// (Horvitz–Thompson weighting, the paper's standard approach, Sec 4.1).
//
// The package also provides samplers that draw biased samples from a known
// population table — used by the experiment harness to construct the paper's
// workloads (e.g. the 95 %-biased flights sample of Sec 5.3).
package mechanism

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Mechanism yields the inclusion probability of a tuple.
type Mechanism interface {
	// Name identifies the mechanism for display and catalogs. For the
	// package's mechanisms it is the SQL spelling of the USING MECHANISM
	// clause, which parses back to an equal mechanism, every number to the
	// same bits.
	Name() string
	// InclusionProb returns Pr_S(t) in (0,1] for the given row.
	InclusionProb(row []value.Value, s *schema.Schema) (float64, error)
}

// Uniform includes every tuple with the same probability (paper:
// "UNIFORM PERCENT 10" is a 10 percent uniform sample).
type Uniform struct {
	Percent float64 // in (0,100]
}

// Name implements Mechanism: UNIFORM PERCENT <Percent>.
func (u Uniform) Name() string { return "UNIFORM PERCENT " + number(u.Percent) }

// InclusionProb implements Mechanism.
func (u Uniform) InclusionProb([]value.Value, *schema.Schema) (float64, error) {
	if u.Percent <= 0 || u.Percent > 100 {
		return 0, fmt.Errorf("mechanism: uniform percent %g out of (0,100]", u.Percent)
	}
	return u.Percent / 100, nil
}

// Stratified samples each stratum (distinct value of Attr) with its own
// probability so that the overall sample is Percent of the population and
// strata are equally represented (paper: "STRATIFIED ON A1 PERCENT 20").
// The per-stratum probabilities are fixed when the sample is drawn from a
// known population (see SampleStratified) or supplied by the user.
type Stratified struct {
	Attr    string
	Percent float64
	// Probs maps stratum value (HashKey) to inclusion probability.
	Probs map[string]float64
}

// Name implements Mechanism: STRATIFIED ON <Attr> PERCENT <Percent>, then,
// when Probs is not empty, WITH PROBABILITIES (<stratum> <p>, …), the
// strata in HashKey order, each written as the literal it is the key of.
func (s Stratified) Name() string {
	b := "STRATIFIED ON " + s.Attr + " PERCENT " + number(s.Percent)
	if len(s.Probs) == 0 {
		return b
	}
	keys := make([]string, 0, len(s.Probs))
	for k := range s.Probs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = stratumSQL(k) + " " + number(s.Probs[k])
	}
	return b + " WITH PROBABILITIES (" + strings.Join(keys, ", ") + ")"
}

// InclusionProb implements Mechanism.
func (s Stratified) InclusionProb(row []value.Value, sc *schema.Schema) (float64, error) {
	i, ok := sc.Index(s.Attr)
	if !ok {
		return 0, fmt.Errorf("mechanism: stratified attribute %q not in schema", s.Attr)
	}
	p, ok := s.Probs[row[i].HashKey()]
	if !ok {
		return 0, fmt.Errorf("mechanism: no inclusion probability for stratum %s", row[i])
	}
	return p, nil
}

// Biased includes tuples satisfying Pred with probability PTrue and the rest
// with PFalse. This models the paper's flights sample: "95 percent of the
// tuples have a long flight time" is a biased mechanism on E > 200.
type Biased struct {
	Pred   expr.Expr
	PTrue  float64
	PFalse float64
}

// Name implements Mechanism: BIASED ON <Pred> WITH PROBABILITIES
// (TRUE <PTrue>, FALSE <PFalse>).
func (b Biased) Name() string {
	return fmt.Sprintf("BIASED ON %s WITH PROBABILITIES (TRUE %s, FALSE %s)", b.Pred, number(b.PTrue), number(b.PFalse))
}

// NoSQLError refuses a mechanism whose type is not one of this package's:
// the SQL dialect has no spelling for it, so no statement, dump or replica
// could carry it.
type NoSQLError struct {
	Type string // the mechanism's Go type, e.g. "main.myMechanism"
}

func (e *NoSQLError) Error() string {
	return fmt.Sprintf("mechanism: %s has no SQL form; a sample's mechanism must be UNIFORM, STRATIFIED or BIASED", e.Type)
}

// CheckSQL returns a *NoSQLError unless m is a Uniform, Stratified or
// Biased: the mechanisms whose Name is SQL.
func CheckSQL(m Mechanism) error {
	switch m.(type) {
	case Uniform, Stratified, Biased:
		return nil
	}
	return &NoSQLError{Type: fmt.Sprintf("%T", m)}
}

// number writes f in the shortest form that parses back to the same bits.
func number(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// stratumSQL writes the literal whose value.HashKey is k, as
// value.AppendSQL writes it. A key no value has writes as ?, which no
// stratum list accepts.
func stratumSQL(k string) string {
	v, ok := value.FromHashKey(k)
	if !ok {
		return "?"
	}
	return string(value.AppendSQL(nil, v))
}

// InclusionProb implements Mechanism.
func (b Biased) InclusionProb(row []value.Value, sc *schema.Schema) (float64, error) {
	ok, err := expr.Truthy(b.Pred, &expr.Binding{Schema: sc, Row: row})
	if err != nil {
		return 0, err
	}
	if ok {
		return b.PTrue, nil
	}
	return b.PFalse, nil
}

// InverseWeights computes Horvitz–Thompson weights 1/Pr_S(t) for every tuple
// of the sample table. SEMI-OPEN queries call it per query, so it scans a
// snapshot and materializes each tuple over the last (a mechanism must not
// keep the row it is shown) — and not at all for Uniform, which never looks.
func InverseWeights(t *table.Table, m Mechanism) ([]float64, error) {
	snap := t.Snapshot()
	out := make([]float64, snap.Len())
	_, rowFree := m.(Uniform)
	var row []value.Value
	for i := range out {
		if !rowFree {
			row = snap.AppendRow(row[:0], i)
		}
		p, err := m.InclusionProb(row, snap.Schema())
		if err != nil {
			return nil, err
		}
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("mechanism %s: inclusion probability %g out of (0,1]", m.Name(), p)
		}
		out[i] = 1 / p
	}
	return out, nil
}

// Sample draws a Bernoulli sample from pop: each tuple enters independently
// with its mechanism probability. Weights in the result are 1.
func Sample(pop *table.Table, m Mechanism, name string, rng *rand.Rand) (*table.Table, error) {
	out := table.New(name, pop.Schema())
	var scanErr error
	pop.Scan(func(row []value.Value, _ float64) bool {
		p, err := m.InclusionProb(row, pop.Schema())
		if err != nil {
			scanErr = err
			return false
		}
		if rng.Float64() < p {
			if err := out.Append(row); err != nil {
				scanErr = err
				return false
			}
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}
