package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mosaic/internal/catalog"
	"mosaic/internal/schema"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// DumpScript serializes the whole database as a Mosaic SQL script that
// recreates it when executed against an empty engine: auxiliary tables with
// their rows, the global population, derived populations, metadata (via
// temporary staging tables, with bin widths), and samples with their rows.
//
// Rows are INSERT statements of up to 500 rows each. A sample whose stored
// weights are not all exactly 1 carries them as data, one per row:
// INSERT INTO s (cols…, WEIGHT) VALUES (…, w), or, if a column of s is
// named WEIGHT and so shadows that pseudo-column, INSERT INTO s VALUES (…)
// WEIGHT w. So identical tuples keep their own weights, and restoring takes
// time linear in the rows. Every
// literal is value.AppendSQL's: numbers in shortest round-trip form, and
// NaN, ±Inf and -0 as FLOAT 'NaN', FLOAT '+Inf', FLOAT '-Inf', FLOAT '-0',
// so a restore gets the same bits back (every NaN as the canonical NaN).
//
// Known limitations: mechanisms other than UNIFORM cannot be expressed in
// SQL (stratified probabilities and predicate-biased designs are Go-API
// objects), so those samples dump as mechanism-less, noted by a comment in
// the output.
func (e *Engine) DumpScript() (string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dumpScriptLocked()
}

// DumpWithGeneration returns the dump script together with the generation it
// captures, read under one lock acquisition — the pair GET /v1/snapshot
// ships to bootstrapping followers. Replaying the script reproduces the
// engine state at exactly that generation.
func (e *Engine) DumpWithGeneration() (string, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	script, err := e.dumpScriptLocked()
	return script, e.gen.Load(), err
}

func (e *Engine) dumpScriptLocked() (string, error) {
	var b strings.Builder
	b.WriteString("-- Mosaic dump; replay with mosaic.DB.Exec or cmd/mosaic.\n")

	// Auxiliary tables (sorted for determinism).
	names := e.auxTableNames()
	for _, n := range names {
		t, _ := e.cat.Table(n)
		fmt.Fprintf(&b, "CREATE TABLE %s %s;\n", n, schemaDDL(t.Schema()))
		dumpRows(&b, n, t, false)
	}

	// Populations: the GP first, then derived ones.
	gp, hasGP := e.cat.GlobalPopulation()
	if hasGP {
		fmt.Fprintf(&b, "CREATE GLOBAL POPULATION %s %s;\n", gp.Name, schemaDDL(gp.Schema))
		for _, p := range e.derivedPopulations() {
			fmt.Fprintf(&b, "CREATE POPULATION %s AS (SELECT %s FROM %s",
				p.Name, strings.Join(p.Schema.Names(), ", "), p.From)
			if p.Where != nil {
				fmt.Fprintf(&b, " WHERE %s", p.Where)
			}
			b.WriteString(");\n")
		}
		// Metadata for every population, via staging tables.
		pops := append([]*catalog.Population{gp}, e.derivedPopulations()...)
		for _, p := range pops {
			for _, m := range p.MarginalList() {
				staging := "__meta_" + sanitize(m.Name)
				cols := make([]string, len(m.Attrs))
				for i, a := range m.Attrs {
					k, err := p.Schema.Kind(a)
					if err != nil {
						return "", err
					}
					// Binned numeric cells hold midpoints, which may be
					// fractional even for INT attributes.
					if m.BinWidth(i) > 0 && k == value.KindInt {
						k = value.KindFloat
					}
					cols[i] = fmt.Sprintf("%s %s", a, k)
				}
				fmt.Fprintf(&b, "CREATE TEMPORARY TABLE %s (%s, mcount FLOAT);\n",
					staging, strings.Join(cols, ", "))
				var lines []string
				for _, c := range m.SortedCells() {
					vals := make([]string, 0, len(c.Vals)+1)
					for _, v := range c.Vals {
						vals = append(vals, v.SQL())
					}
					vals = append(vals, value.Float(c.Count).SQL())
					lines = append(lines, "("+strings.Join(vals, ", ")+")")
				}
				if len(lines) > 0 {
					fmt.Fprintf(&b, "INSERT INTO %s VALUES %s;\n", staging, strings.Join(lines, ", "))
				}
				fmt.Fprintf(&b, "CREATE METADATA %s FOR %s", m.Name, p.Name)
				var bins []string
				for i, a := range m.Attrs {
					if w := m.BinWidth(i); w > 0 {
						bins = append(bins, fmt.Sprintf("%s %g", a, w))
					}
				}
				if len(bins) > 0 {
					fmt.Fprintf(&b, " WITH BINS (%s)", strings.Join(bins, ", "))
				}
				fmt.Fprintf(&b, " AS (SELECT %s, mcount FROM %s);\n",
					strings.Join(m.Attrs, ", "), staging)
				fmt.Fprintf(&b, "DROP TABLE %s;\n", staging)
			}
		}
	}

	// Samples.
	for _, s := range e.sortedSamples() {
		fmt.Fprintf(&b, "CREATE SAMPLE %s %s AS (SELECT %s FROM %s",
			s.Name, schemaDDL(s.Table.Schema()),
			strings.Join(s.Table.Schema().Names(), ", "), s.From)
		if s.Where != nil {
			fmt.Fprintf(&b, " WHERE %s", s.Where)
		}
		if s.Mechanism != nil {
			if mn := s.Mechanism.Name(); strings.HasPrefix(mn, "UNIFORM PERCENT ") {
				fmt.Fprintf(&b, " USING MECHANISM %s", mn)
				b.WriteString(");\n")
			} else {
				fmt.Fprintf(&b, "); -- mechanism %q is not expressible in SQL; restore via SetMechanism\n", mn)
			}
		} else {
			b.WriteString(");\n")
		}
		dumpRows(&b, s.Name, s.Table, true)
	}
	return b.String(), nil
}

func (e *Engine) auxTableNames() []string {
	var names []string
	// The catalog has no listing API for tables by design; rebuild the list
	// through Resolve by tracking registrations would be invasive, so the
	// catalog exposes AllTables below.
	for _, t := range e.cat.AllTables() {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

func (e *Engine) derivedPopulations() []*catalog.Population {
	var out []*catalog.Population
	for _, p := range e.cat.AllPopulations() {
		if !p.Global {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (e *Engine) sortedSamples() []*catalog.Sample {
	out := e.cat.AllSamples()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func schemaDDL(s *schema.Schema) string {
	parts := make([]string, s.Len())
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		parts[i] = fmt.Sprintf("%s %s", a.Name, a.Kind)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// dumpRows writes a relation's rows as INSERT statements of up to 500 rows,
// appending each cell from one snapshot's typed columns straight into the
// statement text. A sample whose weights are not all exactly 1 gets the
// weight as one more value per row, under a WEIGHT column — or, when a
// column of the sample is named WEIGHT, in a WEIGHT clause after each row.
func dumpRows(b *strings.Builder, name string, t *table.Table, sample bool) {
	const batch = 500
	snap := t.Snapshot()
	sc := snap.Schema()
	head := "INSERT INTO " + name + " VALUES "
	wts := snap.Weights()
	weighted := sample && slices.ContainsFunc(wts, func(w float64) bool { return w != 1 })
	_, shadowed := sc.Index("WEIGHT")
	weightCol, weightClause := weighted && !shadowed, weighted && shadowed
	if weightCol {
		head = "INSERT INTO " + name + " (" + strings.Join(sc.Names(), ", ") + ", WEIGHT) VALUES "
	}
	strs := snap.DictStrings()
	var stmt []byte
	for r := range wts {
		if r%batch == 0 {
			stmt = append(stmt[:0], head...)
		} else {
			stmt = append(stmt, ", "...)
		}
		stmt = append(stmt, '(')
		for ci := 0; ci < sc.Len(); ci++ {
			if ci > 0 {
				stmt = append(stmt, ", "...)
			}
			stmt = value.AppendSQL(stmt, snap.Col(ci).Value(r, strs))
		}
		if weightCol {
			stmt = append(stmt, ", "...)
			stmt = value.AppendSQL(stmt, value.Float(wts[r]))
		}
		stmt = append(stmt, ')')
		if weightClause {
			stmt = append(stmt, " WEIGHT "...)
			stmt = value.AppendSQL(stmt, value.Float(wts[r]))
		}
		if r%batch == batch-1 || r == len(wts)-1 {
			stmt = append(stmt, ";\n"...)
			if r < batch {
				// Size the builder once, from the first statement's bytes
				// per row, rather than regrowing it along a multi-MB dump.
				b.Grow(len(stmt) * len(wts) / (r + 1))
			}
			b.Write(stmt)
		}
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
