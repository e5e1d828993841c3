package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mosaic/internal/catalog"
	"mosaic/internal/marginal"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// DumpScript serializes the whole database as a Mosaic SQL script that
// recreates it when executed against an empty engine: auxiliary tables with
// their rows, the global population, derived populations, metadata (via
// temporary staging tables, with bin widths), and samples with their rows.
//
// Rows are COPY blocks (sql.Block) of up to ingestChunk rows each: a header
// COPY rel (cols…) FROM STDIN;, then one row per line, tab-separated, then
// the line \.. A sample whose stored weights are not all exactly 1 carries
// them as data, one per row, in a last column WEIGHT after its own columns,
// which no column of the sample shadows there. So identical tuples keep
// their own weights, and restoring scans the rows straight into the tables
// in time linear in them. Every value is value.AppendSQL's: numbers in
// shortest round-trip form, and NaN, ±Inf and -0 as FLOAT 'NaN',
// FLOAT '+Inf', FLOAT '-Inf', FLOAT '-0', so a restore gets the same bits
// back (every NaN as the canonical NaN). A sample's mechanism is its USING
// MECHANISM clause, so Restore(DumpScript()) dumps the same script again.
func (e *Engine) DumpScript() (string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dumpScriptLocked(), nil
}

// DumpWithGeneration returns the dump script together with the generation it
// captures, read under one lock acquisition — the pair GET /v1/snapshot
// ships to bootstrapping followers. Replaying the script reproduces the
// engine state at exactly that generation.
func (e *Engine) DumpWithGeneration() (string, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dumpScriptLocked(), e.gen.Load(), nil
}

func (e *Engine) dumpScriptLocked() string {
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
		for _, p := range append([]*catalog.Population{gp}, e.derivedPopulations()...) {
			for _, m := range p.MarginalList() {
				writeMetadata(&b, p, m)
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
			fmt.Fprintf(&b, " USING MECHANISM %s", s.Mechanism.Name())
		}
		b.WriteString(");\n")
		dumpRows(&b, s.Name, s.Table, true)
	}
	return b.String()
}

// writeMetadata writes the script that rebuilds marginal m of population
// p: a temporary staging table holding its cells, CREATE METADATA over it
// with m's bin widths, and DROP TABLE. The dump writes it for every
// marginal, and the statement log for each one AddMarginal stores.
func writeMetadata(b *strings.Builder, p *catalog.Population, m *marginal.Marginal) {
	staging := "__meta_" + sanitize(m.Name)
	cols := make([]string, len(m.Attrs))
	for i, a := range m.Attrs {
		// The catalog admits no marginal over an attribute p lacks.
		k, _ := p.Schema.Kind(a)
		// Binned numeric cells hold midpoints, which may be fractional even
		// for INT attributes.
		if m.BinWidth(i) > 0 && k == value.KindInt {
			k = value.KindFloat
		}
		cols[i] = fmt.Sprintf("%s %s", a, k)
	}
	fmt.Fprintf(b, "CREATE TEMPORARY TABLE %s (%s, mcount FLOAT);\n",
		staging, strings.Join(cols, ", "))
	cells := m.SortedCells()
	var row []value.Value
	writeBlocks(b, staging, append(slices.Clip(m.Attrs), "mcount"), len(cells), func(i int) []value.Value {
		row = append(append(row[:0], cells[i].Vals...), value.Float(cells[i].Count))
		return row
	})
	fmt.Fprintf(b, "CREATE METADATA %s FOR %s", m.Name, p.Name)
	var bins []string
	for i, a := range m.Attrs {
		if w := m.BinWidth(i); w > 0 {
			bins = append(bins, fmt.Sprintf("%s %g", a, w))
		}
	}
	if len(bins) > 0 {
		fmt.Fprintf(b, " WITH BINS (%s)", strings.Join(bins, ", "))
	}
	fmt.Fprintf(b, " AS (SELECT %s, mcount FROM %s);\n",
		strings.Join(m.Attrs, ", "), staging)
	fmt.Fprintf(b, "DROP TABLE %s;\n", staging)
}

func (e *Engine) auxTableNames() []string {
	var names []string
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

// dumpRows writes a relation's rows as COPY blocks, every value read from
// one snapshot's typed columns: the relation's columns, and WEIGHT, the
// tuple weights, when the relation is a sample whose weights are not all
// exactly 1.
func dumpRows(b *strings.Builder, name string, t *table.Table, sample bool) {
	snap := t.Snapshot()
	var wts []float64
	if sample && !unitWeights(snap.Weights()) {
		wts = snap.Weights()
	}
	cols, row := storedRows(snap, 0, wts)
	writeBlocks(b, name, cols, snap.Len(), row)
}

// writeBlocks writes n rows into rel as COPY blocks of up to ingestChunk
// rows each, so a restore holds a fixed few blocks' rows in flight; row(i)
// is row i's values, under the names cols.
func writeBlocks(b *strings.Builder, rel string, cols []string, n int, row func(i int) []value.Value) {
	var buf []byte
	for lo := 0; lo < n; lo += ingestChunk {
		hi := min(lo+ingestChunk, n)
		buf = sql.AppendBlock(buf[:0], rel, cols, hi-lo, func(i int) []value.Value { return row(lo + i) })
		if lo == 0 {
			// Size the builder once, from the first block's bytes per row,
			// rather than regrowing it along a multi-MB dump.
			b.Grow(len(buf) * n / hi)
		}
		b.Write(buf)
	}
}

// storedRows returns the names and the rows a block of snap's rows from lo
// on carries: the relation's columns, then, when wts is not nil, the tuple
// weight wts[i] of row lo+i under WEIGHT. Each row it returns is valid until
// the next call.
func storedRows(snap *table.Snapshot, lo int, wts []float64) ([]string, func(i int) []value.Value) {
	cols := snap.Schema().Names()
	if wts != nil {
		cols = append(cols, "WEIGHT")
	}
	var row []value.Value
	return cols, func(i int) []value.Value {
		row = snap.AppendRow(row[:0], lo+i)
		if wts != nil {
			row = append(row, value.Float(wts[i]))
		}
		return row
	}
}

// unitWeights reports whether every weight is exactly 1: rows that need no
// WEIGHT column.
func unitWeights(wts []float64) bool {
	return !slices.ContainsFunc(wts, func(w float64) bool { return w != 1 })
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
