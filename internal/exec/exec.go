// Package exec evaluates SELECT statements over weighted tables. It is the
// shared physical layer for all three visibilities: CLOSED runs over
// user-initialized weights, SEMI-OPEN over mechanism/IPF weights, and OPEN
// over generated samples — the operators are identical, only the weights and
// the backing rows differ.
//
// Weighted aggregate rewriting (paper Sec 5.3: "we simply modify the
// aggregate to be over a weight attribute, e.g. COUNT(*) becomes
// SUM(weight)"): COUNT(*) sums weights, SUM(x) computes Σ w·x, AVG(x)
// computes Σ w·x / Σ w; MIN and MAX are weight-invariant.
//
// Each expression is evaluated once where it can be: the compiler
// (kernelCompiler.operand) evaluates a column-free subtree when it compiles
// it, so no tree is rewritten before execution, and ORDER BY over a finished
// answer (orderAndLimit) reads each row's keys once before it sorts.
package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"mosaic/internal/expr"
	"mosaic/internal/schema"
	"mosaic/internal/sql"
	"mosaic/internal/table"
	"mosaic/internal/value"
)

// Result is a materialized query answer.
type Result struct {
	Columns []string
	Rows    [][]value.Value
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := renderValue(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	return b.String()
}

func renderValue(v value.Value) string {
	if v.Kind() == value.KindText {
		return v.AsText()
	}
	if v.Kind() == value.KindFloat {
		return fmt.Sprintf("%.6g", v.AsFloat())
	}
	return v.String()
}

// Options controls execution.
type Options struct {
	// Weighted enables the weighted-aggregate rewriting. When false every
	// tuple counts exactly once regardless of stored weight.
	Weighted bool
	// WeightOverride supplies per-row weights to use instead of the table's
	// stored weights (len must equal table length). Ignored when nil.
	WeightOverride []float64
	// ForceRow runs the row-at-a-time interpreter instead of the columnar
	// pipeline. The differential tests and the benchmark's answer oracles
	// use it; answers are byte-identical either way, so production callers
	// never need it.
	ForceRow bool
	// Workers is the intra-query parallelism of the columnar kernels: scans
	// partition into fixed-size morsels that a pool of this many goroutines
	// processes, with per-morsel state merged in morsel order. 0 or 1 runs
	// serial. Answers are byte-identical for any value — Workers only trades
	// wall-clock for cores, never changes results.
	Workers int
	// Shards range-partitions the scan into this many contiguous slices and
	// answers every aggregate query by scatter-gather: per-shard
	// partial states merged in shard order (see shard.go). 0 or 1 disables
	// sharding and is byte-identical to the pre-sharding engine. For a fixed
	// Shards value answers are bit-identical across runs and Workers values,
	// but float aggregates may differ in low-order bits between different
	// Shards values (the shard merge reassociates addition) — Shards is part
	// of the answer contract.
	Shards int
	// ShardScan, when non-nil, is called once per shard of an in-process
	// scatter (Shards > 1) with the shard index and the number of rows its
	// slice scanned — the observability hook behind /statsz's per-shard
	// counters. PartialAggregate never calls it: fleet shard indices are the
	// coordinator's, not this process's. Must be safe for concurrent calls.
	ShardScan func(shard, rows int)
}

// workers normalizes Options.Workers for the morsel scheduler.
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// Run evaluates sel over t. It takes one snapshot of the table (a single
// lock acquisition) and scans it lock-free.
func Run(t *table.Table, sel *sql.Select, opts Options) (*Result, error) {
	return RunContext(context.Background(), t, sel, opts)
}

// RunContext is Run with a cancellation context: the scan checks ctx at
// kernel, sort, and row-batch boundaries and returns ctx.Err() promptly once
// it expires, leaving no partial state behind (results materialize only on
// success).
func RunContext(ctx context.Context, t *table.Table, sel *sql.Select, opts Options) (*Result, error) {
	return RunSnapshotContext(ctx, t.Snapshot(), sel, opts)
}

// RunSnapshotContext evaluates sel over an already-captured snapshot: on
// the columnar pipeline, or on the row-at-a-time interpreter when
// opts.ForceRow is set. The two produce byte-identical results.
func RunSnapshotContext(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	if err := begin(ctx, snap, sel, opts); err != nil {
		return nil, err
	}
	switch {
	case opts.ForceRow && sel.IsAggregate():
		return runAggregate(ctx, snap, sel, opts)
	case opts.ForceRow:
		return runProjection(ctx, snap, sel, opts)
	case sel.IsAggregate():
		return runAggregateVector(ctx, snap, sel, opts)
	}
	return runProjectionVector(ctx, snap, sel, opts)
}

// begin is every executor entry point's preamble: validate the weight
// override against the snapshot, honor an expired context, and resolve the
// names of the WHERE and then of the items against the snapshot.
func begin(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) error {
	if opts.WeightOverride != nil && len(opts.WeightOverride) != snap.Len() {
		return fmt.Errorf("exec: weight override has %d entries for %d rows", len(opts.WeightOverride), snap.Len())
	}
	if err := checkCtx(ctx); err != nil {
		return err
	}
	es := []expr.Expr{sel.Where}
	for _, it := range sel.Items {
		es = append(es, it.Expr)
	}
	return CheckNames(snap.Schema(), es...)
}

// CheckNames refuses the first column name of es, in order, that neither a
// column of sc nor the WEIGHT pseudo-column resolves, with the
// interpreter's error; nil expressions are skipped. The interpreter meets
// a name only at a row that evaluates it, so a statement checks its names
// before reading any row: whether it is refused must not depend on how
// many rows it reaches.
func CheckNames(sc *schema.Schema, es ...expr.Expr) error {
	for _, e := range es {
		if e == nil {
			continue
		}
		for _, name := range e.Columns(nil) {
			if _, ok := sc.Index(name); !ok && !strings.EqualFold(name, "WEIGHT") {
				return fmt.Errorf("expr: unknown column %q", name)
			}
		}
	}
	return nil
}

// cancelCheckRows is how many rows a tight scan loop processes between
// context checks: frequent enough that cancellation lands within microseconds
// on any realistic table, rare enough that the check never shows in profiles.
const cancelCheckRows = 8192

// checkCtx returns the context's error, if any. A nil context never cancels.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// rowEnv binds one row at a time for the row interpreter and for rowError,
// exposing WEIGHT as a pseudo-column unless the schema has a column of that
// name.
type rowEnv struct {
	nc     int  // stored attributes: the bound row's prefix
	weight bool // the binding row ends with the WEIGHT pseudo-column
	b      expr.Binding
}

func makeEnv(sc *schema.Schema) *rowEnv {
	e := &rowEnv{nc: sc.Len(), b: expr.Binding{Schema: sc}}
	if _, ok := sc.Index("WEIGHT"); ok {
		return e
	}
	// A schema that already validated cannot fail here except via the
	// WEIGHT duplicate, which the branch above handles.
	if ext, err := schema.New(append(sc.Attributes(), schema.Attribute{Name: "WEIGHT", Kind: value.KindFloat})...); err == nil {
		e.b.Schema, e.weight = ext, true
	}
	return e
}

// at materializes row i of snap, with w as WEIGHT, over the env's one
// binding row: the binding is valid until the next call, so nothing
// evaluated over it may keep the row.
func (e *rowEnv) at(snap *table.Snapshot, i int, w float64) *expr.Binding {
	e.b.Row = snap.AppendRow(e.b.Row[:0], i)
	if e.weight {
		e.b.Row = append(e.b.Row, value.Float(w))
	}
	return &e.b
}

// rowError is the interpreter's error at row i of snap, with w as WEIGHT,
// where the kernels found a statement's first failure: eval runs the
// interpreter's own function on that one row, so the message is its own. A
// row where the interpreter does not fail is an executor fault; it is
// reported as one, never answered.
func rowError(snap *table.Snapshot, i int, w float64, eval func(*expr.Binding) error) error {
	if err := eval(makeEnv(snap.Schema()).at(snap, i, w)); err != nil {
		return err
	}
	return fmt.Errorf("exec: internal error: the compiled plan fails at row %d and the interpreter does not", i)
}

// projectRow evaluates the select items over one bound row, whose first nc
// values are the stored attributes a star expands to.
func projectRow(sel *sql.Select, b *expr.Binding, nc int) ([]value.Value, error) {
	var out []value.Value
	for _, it := range sel.Items {
		if it.Star {
			out = append(out, b.Row[:nc]...)
			continue
		}
		v, err := it.Expr.Eval(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func runProjection(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	env := makeEnv(snap.Schema())
	cols, _ := projectionSources(snap, sel)
	res := &Result{Columns: cols}
	n := snap.Len()
	for i := 0; i < n; i++ {
		if i%cancelCheckRows == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
		}
		w := snap.Weight(i)
		if opts.WeightOverride != nil {
			w = opts.WeightOverride[i]
		}
		b := env.at(snap, i, w)
		if sel.Where != nil {
			ok, err := expr.Truthy(sel.Where, b)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out, err := projectRow(sel, b, env.nc)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, out)
	}
	if sel.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	if err := orderAndLimit(ctx, res, sel); err != nil {
		return nil, err
	}
	return res, nil
}

// dedupRows keeps the first occurrence of each distinct row (SQL DISTINCT),
// preserving input order.
func dedupRows(rows [][]value.Value) [][]value.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, row := range rows {
		k := GroupKey(row)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// resolveGroupKeys maps GROUP BY names to schema positions and validates the
// plain (non-aggregate) select items, with the error messages both executor
// paths share.
func resolveGroupKeys(snap *table.Snapshot, sel *sql.Select) ([]int, error) {
	sc := snap.Schema()
	keyIdx := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		j, ok := sc.Index(g)
		if !ok {
			return nil, fmt.Errorf("exec: GROUP BY column %q not in %s", g, snap.Name())
		}
		keyIdx[i] = j
	}
	return keyIdx, checkGroupItems(sel)
}

// checkGroupItems refuses a plain select item of an aggregate query that is
// not a GROUP BY column: finalize reads each plain item from its group's
// key values.
func checkGroupItems(sel *sql.Select) error {
	isGroupKey := func(name string) bool {
		for _, g := range sel.GroupBy {
			if strings.EqualFold(g, name) {
				return true
			}
		}
		return false
	}
	for _, it := range sel.Items {
		if it.Agg != sql.AggNone {
			continue
		}
		if it.Star {
			return fmt.Errorf("exec: * is not allowed with GROUP BY or aggregates")
		}
		col, ok := it.Expr.(*expr.Column)
		if !ok || !isGroupKey(col.Name) {
			return fmt.Errorf("exec: select item %q must be a GROUP BY column or an aggregate", it.Name())
		}
	}
	return nil
}

// itemKeyPositions precomputes, for every select item, the GROUP BY position
// its key value comes from (-1 for aggregates): the first GROUP BY name that
// matches the item's column under EqualFold.
func itemKeyPositions(sel *sql.Select) []int {
	out := make([]int, len(sel.Items))
	for ii, it := range sel.Items {
		out[ii] = -1
		if it.Agg != sql.AggNone {
			continue
		}
		col := it.Expr.(*expr.Column)
		for i, gname := range sel.GroupBy {
			if strings.EqualFold(gname, col.Name) {
				out[ii] = i
				break
			}
		}
		if out[ii] < 0 {
			out[ii] = 0
		}
	}
	return out
}

// runAggregate is the row interpreter's aggregate driver: it evaluates WHERE
// and every aggregate input per row, gives groups ids by first appearance,
// folds each input into the shared PartialStates with one scalar
// Accumulate, and hands the states to finalize. It shares only the state
// algebra and the output step with the kernels, so it stays an independent
// oracle for their loops.
func runAggregate(ctx context.Context, snap *table.Snapshot, sel *sql.Select, opts Options) (*Result, error) {
	env := makeEnv(snap.Schema())
	keyIdx, err := resolveGroupKeys(snap, sel)
	if err != nil {
		return nil, err
	}
	var aggs []sql.SelectItem
	var states []*PartialStates
	for _, it := range sel.Items {
		if it.Agg != sql.AggNone {
			aggs = append(aggs, it)
			states = append(states, NewPartialStates(it.Agg, 0))
		}
	}
	ids := map[string]int{}
	var keys [][]value.Value // group g's GROUP BY values, from its first row
	kv := make([]value.Value, len(keyIdx))
	n := snap.Len()
	for i := 0; i < n; i++ {
		if i%cancelCheckRows == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
		}
		w := snap.Weight(i)
		if opts.WeightOverride != nil {
			w = opts.WeightOverride[i]
		}
		b := env.at(snap, i, w)
		if sel.Where != nil {
			ok, err := expr.Truthy(sel.Where, b)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for ki, j := range keyIdx {
			kv[ki] = b.Row[j]
		}
		k := GroupKey(kv)
		g, ok := ids[k]
		if !ok {
			// Key values are copied out of the one buffer only on first
			// sight of the group.
			g = len(keys)
			ids[k] = g
			keys = append(keys, slices.Clone(kv))
			for _, st := range states {
				st.Grow(g + 1)
			}
		}
		if !opts.Weighted {
			w = 1
		}
		for ai, it := range aggs {
			if err := accumulateRow(states[ai], g, it, b, w); err != nil {
				return nil, err
			}
		}
	}
	return finalize(ctx, sel, states, len(keys), keyRows(keys))
}

// accumulateRow evaluates aggregate item it over one bound row and folds a
// non-null input into group g of st.
func accumulateRow(st *PartialStates, g int, it sql.SelectItem, b *expr.Binding, w float64) error {
	if it.Star { // COUNT(*): no input, never null
		return st.Accumulate(g, value.Null(), w)
	}
	v, err := it.Expr.Eval(b)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if err := st.Accumulate(g, v, w); err != nil {
		return fmt.Errorf("exec: %s over non-numeric value %s", it.Agg, v)
	}
	return nil
}

// outputSchema builds the name-resolution schema over a result's output
// columns for HAVING/ORDER BY evaluation. Kinds are irrelevant — column
// evaluation looks up by name and returns the stored row value — so every
// attribute is declared FLOAT. Duplicate output names (e.g. two COUNT(*))
// fall back to positional _colN names: by-name resolution is then
// unavailable but execution still succeeds.
func outputSchema(cols []string) *schema.Schema {
	attrs := make([]schema.Attribute, len(cols))
	for i, c := range cols {
		attrs[i] = schema.Attribute{Name: c, Kind: value.KindFloat}
	}
	sc, err := schema.New(attrs...)
	if err != nil {
		for i := range attrs {
			attrs[i].Name = fmt.Sprintf("_col%d", i)
		}
		sc = schema.MustNew(attrs...)
	}
	return sc
}

// orderAndLimit sorts and truncates a materialized result.
//
// Tie-break contract: the sort is STABLE. Rows whose ORDER BY keys all
// compare equal under value.Compare keep their relative pre-sort order —
// scan order for projections, first-occurrence order after DISTINCT, group
// first-appearance order for aggregates (replicate-0 order for the OPEN
// combine). Every sort in the engine (this one, the columnar key-word
// sort, and the bounded top-K heap) implements this same contract, which is
// what makes the executors byte-identical and ORDER BY ... LIMIT k equal to
// the k-prefix of the unlimited query.
//
// Each row's keys are read once, into one slab, and one order over them —
// value.Compare, DESC honoured, ties broken by position — selects the
// LIMIT's rows through boundedTopK, or sorts them all. A key that fails at
// any row fails the statement, however many rows there are.
func orderAndLimit(ctx context.Context, res *Result, sel *sql.Select) error {
	n, k := len(res.Rows), len(res.Rows)
	if sel.Limit >= 0 && sel.Limit < n {
		k = sel.Limit
	}
	if len(sel.OrderBy) == 0 {
		res.Rows = res.Rows[:k]
		return nil
	}
	// Sort boundary: the key reads and the sort are not interruptible, so
	// the check lands before them.
	if err := checkCtx(ctx); err != nil {
		return err
	}
	out := outputSchema(res.Columns)
	if err := checkOrderKeys(sel, res.Columns, out); err != nil {
		return err
	}
	nk := len(sel.OrderBy)
	pos := make([]int, nk)
	for ki, o := range sel.OrderBy {
		pos[ki] = outputColumn(o.Expr, res.Columns)
	}
	keys := make([]value.Value, n*nk)
	b := &expr.Binding{Schema: out}
	for i, row := range res.Rows {
		b.Row = row
		for ki, o := range sel.OrderBy {
			v, err := orderKey(o.Expr, pos[ki], b)
			if err != nil {
				return err
			}
			keys[i*nk+ki] = v
		}
	}
	top := boundedTopK(n, k, func(i, j int) bool {
		ki, kj := keys[i*nk:], keys[j*nk:]
		for x, o := range sel.OrderBy {
			if c := value.Compare(ki[x], kj[x]); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return i < j
	})
	rows := make([][]value.Value, len(top))
	for i, p := range top {
		rows[i] = res.Rows[p]
	}
	res.Rows = rows
	return nil
}

// outputColumn is the position of the output column an ORDER BY key names:
// the first whose name matches under EqualFold when the key is a column,
// else -1.
func outputColumn(e expr.Expr, cols []string) int {
	if col, ok := e.(*expr.Column); ok {
		return slices.IndexFunc(cols, func(c string) bool { return strings.EqualFold(c, col.Name) })
	}
	return -1
}

// checkOrderKeys refuses an ORDER BY key that names a column the output
// lacks, before any row is read: without it the refusal would depend on
// whether any row reached the sort. A key that is an output column
// (outputColumn) resolves; any other key's columns resolve against out, as
// its evaluation does.
func checkOrderKeys(sel *sql.Select, cols []string, out *schema.Schema) error {
	for _, o := range sel.OrderBy {
		if outputColumn(o.Expr, cols) >= 0 {
			continue
		}
		for _, name := range o.Expr.Columns(nil) {
			if _, ok := out.Index(name); !ok {
				return fmt.Errorf("exec: cannot resolve ORDER BY expression %s against output columns", o.Expr)
			}
		}
	}
	return nil
}

// orderKey is ORDER BY key e at the output row b binds: output column ci
// when e names one (outputColumn), else e evaluated against the output
// columns.
func orderKey(e expr.Expr, ci int, b *expr.Binding) (value.Value, error) {
	if ci >= 0 {
		return b.Row[ci], nil
	}
	v, err := e.Eval(b)
	if err != nil {
		return value.Null(), fmt.Errorf("exec: cannot resolve ORDER BY expression %s against output columns", e)
	}
	return v, nil
}

// Materialize runs a select and stores the answer in a new table with the
// given name. A plain column item, aliased or not, keeps its source
// column's kind; a computed item (an aggregate, an expression) takes the
// kind of its first non-NULL value, FLOAT when every value is NULL.
func Materialize(t *table.Table, sel *sql.Select, opts Options, name string) (*table.Table, error) {
	res, err := Run(t, sel, opts)
	if err != nil {
		return nil, err
	}
	src := t.Schema()
	kinds := make([]value.Kind, 0, len(res.Columns))
	for _, it := range sel.Items {
		if it.Star && it.Agg == sql.AggNone {
			for j := 0; j < src.Len(); j++ {
				kinds = append(kinds, src.At(j).Kind)
			}
			continue
		}
		k := value.KindNull
		if col, ok := it.Expr.(*expr.Column); ok && it.Agg == sql.AggNone {
			if j, ok := src.Index(col.Name); ok {
				k = src.At(j).Kind
			}
		}
		kinds = append(kinds, k)
	}
	attrs := make([]schema.Attribute, len(res.Columns))
	for i, c := range res.Columns {
		k := kinds[i]
		for r := 0; k == value.KindNull && r < len(res.Rows); r++ {
			k = res.Rows[r][i].Kind()
		}
		if k == value.KindNull {
			k = value.KindFloat
		}
		attrs[i] = schema.Attribute{Name: c, Kind: k}
	}
	sc, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	out := table.New(name, sc)
	if err := out.BulkAppend(res.Rows); err != nil {
		return nil, err
	}
	return out, nil
}
