package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"mosaic/internal/catalog"
	"mosaic/internal/exec"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Explain describes how a SELECT would be answered without running it: the
// relation kind, the resolved visibility, the chosen sample, the marginal
// scope (Fig 3's two paths), and the debiasing technique — the same route and
// scan decision the read paths execute, so EXPLAIN refuses what they refuse.
// Like Query it runs on the engine's shared read path.
func (e *Engine) Explain(sel *sql.Select) (*exec.Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, err := e.resolve(sel)
	if err != nil {
		return nil, err
	}
	res := &exec.Result{Columns: []string{"property", "value"}}
	add := func(k, v string) {
		res.Rows = append(res.Rows, []value.Value{value.Text(k), value.Text(v)})
	}
	add("relation", sel.From)
	switch rt.kind {
	case "table":
		add("kind", "auxiliary table")
	case "sample":
		add("kind", "sample")
	default:
		pc := rt.pc
		if pc.pop.Global {
			add("kind", "global population")
		} else {
			add("kind", fmt.Sprintf("population (view over %s)", pc.pop.From))
		}
		if sel.Visibility == sql.VisibilityDefault {
			add("visibility", sql.VisibilitySemiOpen.String()+" (default)")
		} else {
			add("visibility", sel.Visibility.String())
		}
		add("sample", fmt.Sprintf("%s (%d tuples)", pc.sample.Name, pc.sample.Table.Len()))
		if pc.sample.Mechanism != nil {
			add("mechanism", pc.sample.Mechanism.Name())
		} else {
			add("mechanism", "unknown")
		}
		if len(pc.margs) > 0 {
			names := make([]string, len(pc.margs))
			for i, m := range pc.margs {
				names[i] = m.Name
			}
			add("marginal scope", pc.scope+" population")
			add("marginals", strings.Join(names, ", "))
		} else {
			add("marginals", "none")
		}
	}
	s := e.scanOf(rt, sel)
	add("technique", e.technique(s))
	if s.src == wOpen {
		add("model", e.openModelState(s.pc))
	}
	add("execution", e.execPlan())
	if p := e.shardPlan(s); p != "" {
		add("sharding", p)
	}
	return res, nil
}

// technique names the scan's weight source — the same decision bind and
// runOpen act on.
func (e *Engine) technique(s scan) string {
	switch s.src {
	case wUnweighted:
		return "direct scan (closed world)"
	case wStored:
		if s.pc == nil {
			return "direct scan over stored weights"
		}
		return "sample as stored (user-initialized weights)"
	case wInverse:
		return "inverse inclusion probability (Horvitz–Thompson)"
	case wIPFView, wIPFGlobal:
		// A declared mechanism reaches IPF only when it yields no inclusion
		// probabilities (mechanismKnown): a STRATIFIED design without them.
		if m := s.pc.sample.Mechanism; m != nil {
			return "IPF reweighting against marginals: mechanism " + m.Name() + " declares no inclusion probabilities"
		}
		return "IPF reweighting against marginals"
	case wRefused:
		return "UNANSWERABLE: " + strings.TrimPrefix(s.err.Error(), "core: ")
	}
	n := e.opts.GeneratedRows
	if n <= 0 {
		n = s.pc.sample.Table.Len()
	}
	if !s.q.IsAggregate() {
		// Non-aggregate OPEN queries answer from a single replicate.
		return fmt.Sprintf("M-SWG generation: 1 replicate × %d tuples", n)
	}
	return fmt.Sprintf("M-SWG generation: %d replicates × %d tuples across %d workers, group-intersect + average",
		e.opts.OpenSamples, n, min(e.opts.Workers, e.opts.OpenSamples))
}

// execPlan describes the physical scan plan: which executor serves the query
// and how it partitions the table. Answers never depend on this — the
// morsel merge is deterministic and the row path is byte-identical — so the
// row is purely informational.
func (e *Engine) execPlan() string {
	if e.opts.RowExec {
		return "row-at-a-time interpreter (forced)"
	}
	if e.opts.Workers <= 1 {
		return fmt.Sprintf("vectorized kernels, serial scan (%d-row morsels, 1 worker)", exec.MorselRows)
	}
	return fmt.Sprintf("vectorized kernels, morsel-parallel scan (%d-row morsels × %d workers, deterministic morsel-order merge)",
		exec.MorselRows, e.opts.Workers)
}

// shardPlan describes the scatter-gather shard plan alongside the morsel
// plan; empty when sharding is off (Shards ≤ 1) so single-shard EXPLAIN
// output stays byte-identical to the pre-sharding engine, and empty for
// non-aggregate shapes, which the executor never shards. Unlike the morsel
// plan, the shard plan is part of the answer contract: float aggregates may
// differ in low-order bits between Shards values (partial-state merges
// reassociate addition), though for a fixed Shards value answers stay
// bit-identical across runs and Workers.
func (e *Engine) shardPlan(s scan) string {
	switch {
	case e.opts.Shards <= 1 || e.opts.RowExec:
		return ""
	case s.src == wOpen:
		return fmt.Sprintf("disabled for OPEN: replicates scan the unified view (models train on the full sample); %d shards serve CLOSED/SEMI-OPEN aggregates only", e.opts.Shards)
	case !s.q.IsAggregate():
		return ""
	}
	return fmt.Sprintf("scatter-gather over %d contiguous range shards (64-row-aligned bounds), partial aggregate states merged in shard order", e.opts.Shards)
}

// execCopy bulk-loads rows into a table or sample from a CSV file or from
// an inline block. Like Ingest, it stops at the first row that fails and
// keeps the rows before it. Once the relation resolves, rows is the log
// entry of the rows it stored.
func (e *Engine) execCopy(c *sql.Copy) (rows logEntry, err error) {
	t, err := e.sourceTable(c.Table)
	if err != nil {
		return logEntry{}, fmt.Errorf("core: COPY %s: %v", c.Table, err)
	}
	_, sample := e.cat.Sample(c.Table)
	n0 := t.Len()
	if c.Block != nil {
		err = copyBlock(t, c, sample)
	} else {
		err = copyCSV(t, c)
	}
	return e.rowsEntry(c.Table, t, n0, sample), err
}

// copyCSV loads a CSV file, coercing each field to the target column's
// kind. Empty fields load as NULL.
func copyCSV(t *table.Table, c *sql.Copy) error {
	f, err := os.Open(c.Path)
	if err != nil {
		return fmt.Errorf("core: COPY %s: %v", c.Table, err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = t.Schema().Len()
	records, err := r.ReadAll()
	if err != nil {
		return fmt.Errorf("core: COPY %s: %v", c.Table, err)
	}
	if c.Header && len(records) > 0 {
		records = records[1:]
	}
	sc := t.Schema()
	ri, err := appendRows(t, len(records), true, builtRows(func(buf []value.Value, i int) ([]value.Value, error) {
		for j, field := range records[i] {
			v, err := parseCSVField(field, sc.At(j).Kind)
			if err != nil {
				return buf, fmt.Errorf("column %q: %v", sc.At(j).Name, err)
			}
			buf = append(buf, v)
		}
		return buf, nil
	}))
	if err != nil {
		return fmt.Errorf("core: COPY %s row %d: %v", c.Table, ri+1, err)
	}
	return nil
}

// copyBlock loads a block's rows (sql.Block), as INSERT INTO <relation>
// (<header>) VALUES would. The header names the relation's columns in
// schema order and, into a sample, may add WEIGHT, the tuple weight,
// converted as INSERT converts it, even when a column is named WEIGHT too.
// A row that did not scan fails the statement after the rows before it.
func copyBlock(t *table.Table, c *sql.Copy, sample bool) error {
	b, sc := c.Block, t.Schema()
	n := sc.Len()
	weighted := sample && len(b.Columns) == n+1 && strings.EqualFold(b.Columns[n], "WEIGHT")
	ok := weighted || len(b.Columns) == n
	for i := 0; ok && i < n; i++ {
		j, found := sc.Index(b.Columns[i])
		ok = found && j == i
	}
	if !ok {
		return fmt.Errorf("core: COPY %s: the header must name the columns (%s) in order, then, into a sample, optionally WEIGHT",
			c.Table, strings.Join(sc.Names(), ", "))
	}
	// The rows are slices of the block's values, not copies; a weighted
	// row's weight is its last value, which the row then leaves out.
	w := len(b.Columns)
	var rows [][]value.Value
	var wts []float64
	ri, err := appendRows(t, b.Len(), true, func(lo, hi int) ([][]value.Value, []float64, error) {
		rows, wts = rows[:0], wts[:0]
		for i := lo; i < hi; i++ {
			row := b.Vals[i*w : (i+1)*w]
			if weighted {
				wt, err := row[n].Float64()
				if err != nil {
					return rows, wts, fmt.Errorf("weight: %v", err)
				}
				row, wts = row[:n], append(wts, wt)
			}
			rows = append(rows, row)
		}
		return rows, wts, nil
	})
	if err == nil && b.Err != nil {
		ri, err = b.Len(), b.Err
	}
	if err != nil {
		return fmt.Errorf("core: COPY %s row %d: %v", c.Table, ri+1, err)
	}
	return nil
}

func parseCSVField(s string, k value.Kind) (value.Value, error) {
	if s == "" {
		return value.Null(), nil
	}
	switch k {
	case value.KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return value.Null(), err
		}
		return value.Int(i), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return value.Null(), err
		}
		return value.Float(f), nil
	case value.KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(s)))
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(b), nil
	default:
		return value.Text(s), nil
	}
}

// unionCoveringSamples implements the Sec 7 "Multiple Samples" extension:
// rather than picking one optimal sample, union every schema-covering sample
// of the population and let IPF or the M-SWG reweight the combined tuples.
// The union's mechanism is unknown (the members may have different designs),
// and the union's weights concatenate the members' stored weights.
//
// The union is derived state like the fits and models built on it: its
// inputs are the member tables, in name order, each at its mutation version,
// and while those stand every plan gets the same *catalog.Sample back — so
// what is derived from the union stays valid too.
func (e *Engine) unionCoveringSamples(gp *catalog.Population, need map[string]bool) (*catalog.Sample, error) {
	var members []*catalog.Sample
	for _, s := range e.cat.SamplesOf(gp.Name) {
		ok := true
		for a := range need {
			if _, has := s.Table.Schema().Index(a); !has {
				ok = false
				break
			}
		}
		if ok && s.Table.Len() > 0 {
			members = append(members, s)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: no sample of population %q covers the query attributes", gp.Name)
	}
	if len(members) == 1 {
		return members[0], nil
	}
	// The catalog lists samples in map order; the union's row order must not
	// depend on it.
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	names := make([]string, len(members))
	cur := inputs{pop: gp}
	for i, m := range members {
		names[i] = m.Name
		cur.tables = append(cur.tables, stateOf(m.Table))
	}
	name := "union(" + strings.Join(names, "+") + ")"
	// plan has no context to pass on, and materializing a union is bounded
	// work that nothing needs to interrupt.
	return derive(context.TODO(), e, e.unions, modelKey(name, gp.Name), cur, nil, func() (*catalog.Sample, error) {
		return unionSamples(name, gp, members)
	})
}

// unionSamples materializes the union of members, in order, under name.
func unionSamples(name string, gp *catalog.Population, members []*catalog.Sample) (*catalog.Sample, error) {
	// Use the narrowest member schema all members share: project each
	// member down to the intersection of attributes so heterogeneous
	// samples can still union (Sec 7 "Data Integration" relaxation is out
	// of scope; attribute subsets suffice).
	common := members[0].Table.Schema()
	for _, m := range members[1:] {
		var keep []string
		for _, a := range common.Names() {
			if _, ok := m.Table.Schema().Index(a); ok {
				keep = append(keep, a)
			}
		}
		var err error
		common, _, err = common.Project(keep)
		if err != nil {
			return nil, err
		}
	}
	union := table.New(name, common)
	for _, m := range members {
		_, idxs, err := m.Table.Schema().Project(common.Names())
		if err != nil {
			return nil, err
		}
		var appErr error
		m.Table.Scan(func(row []value.Value, w float64) bool {
			proj := make([]value.Value, len(idxs))
			for pi, src := range idxs {
				proj[pi] = row[src]
			}
			appErr = union.AppendWeighted(proj, w)
			return appErr == nil
		})
		if appErr != nil {
			return nil, appErr
		}
	}
	return &catalog.Sample{Name: name, Table: union, From: gp.Name}, nil
}
